package zmapper

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
)

// snapJSON renders a registry's deterministic snapshot for byte comparison.
func snapJSON(t testing.TB, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanState is everything one scan produces that the state goldens pin:
// the counters, the response stream and the deterministic snapshot (which
// carries zmap.rtt_first_self, the first-self-response histogram).
type scanState struct {
	probes, packets, corrupt uint64
	responses                []byte
	snap                     []byte
}

// hashes returns the SHA-256 of the response stream and of the snapshot.
func (s scanState) hashes() [2]string {
	r, n := sha256.Sum256(s.responses), sha256.Sum256(s.snap)
	return [2]string{hex.EncodeToString(r[:]), hex.EncodeToString(n[:])}
}

// runScanState runs cfg with a fresh registry — sequentially through Run
// when shards is 0, otherwise through RunSharded — and captures its outputs.
func runScanState(t testing.TB, cfg Config, shards int, fabric func(int) simnet.Fabric) scanState {
	t.Helper()
	cfg.Obs = obs.NewRegistry()
	var sc *Scan
	var err error
	if shards == 0 {
		sc, err = Run(simnet.NewNetwork(&simnet.Scheduler{}, fabric(0)), cfg)
	} else {
		sc, err = RunSharded(cfg, shards, fabric)
	}
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	var buf bytes.Buffer
	for _, r := range sc.Responses {
		binary.Write(&buf, binary.BigEndian, uint32(r.Dst))
		binary.Write(&buf, binary.BigEndian, uint32(r.Src))
		binary.Write(&buf, binary.BigEndian, int64(r.RTT))
	}
	return scanState{probes: sc.ProbesSent, packets: sc.PacketsReceived, corrupt: sc.CorruptPackets,
		responses: buf.Bytes(), snap: snapJSON(t, cfg.Obs)}
}

// scanStateGoldens are SHA-256 hashes of {response stream, deterministic
// snapshot}. They were captured from the scanner's earlier
// one-event-per-probe schedule with per-address first-self tracking and the
// model's per-address radio map; the probe pump, the rank-keyed first-self
// bitset and the bounded radio table that replaced them must reproduce them
// byte for byte at every shard count. For an intentional format change, blank a golden and rerun with
// -v: the failure message prints the newly computed hashes to re-pin.
var scanStateGoldens = map[string][2]string{
	"pow2/seed5":     {"92f5fc3ebc2d0756a11fb72b3c136271bb490d5b0850e80115f1fe0ad8f4e3a1", "650cb206b0e60ac43381ee78db0a8f99abca355e51a0466771ec202408655676"},
	"pow2/seed99":    {"c9af7aea077713a116649f22b8e6597905c854b6e06b478ffe24ad25e73767c9", "0ea0af3061219680f683014196b7eff0da628f7e776e43ca8095c3346e06be77"},
	"nonpow2/seed5":  {"da7b28ae22ecadb12a2f12c13bc587b5b7d33279f8b6e5ca065e38f2de243f42", "1d75c3d8e027ca47fbd1e329cd9ea5b811083f65cbba07011dca5c4ef876096d"},
	"nonpow2/seed99": {"28b8d402944a5d8994ef90a5694b063de7d398dc75af2863ae4ebf42a6cab0bf", "080c7c1689244d7a4ff397e6037cc388eef8c3208cd91c6c055aa0960543f447"},
	"nonpow2-96":     {"394abf92d614be4b2eda413c0f8feeed90f1204fb8b8109f0f8ebeafc4e7a094", "532488d4eef0af4b643af870c2f64a18a940c4dddc505240aa06e9c15adc710f"},
}

// checkScanStates runs base sequentially and at each shard count, and
// requires every run to reproduce the golden and the same counters.
func checkScanStates(t *testing.T, key string, pop *netmodel.Population, base Config, shards ...int) {
	t.Helper()
	var ref *scanState
	for _, k := range append([]int{0}, shards...) {
		label := fmt.Sprintf("shards=%d", k)
		got := runScanState(t, base, k, scanFabric(pop, base.Src))
		if ref == nil {
			ref = &got
		} else if got.probes != ref.probes || got.packets != ref.packets || got.corrupt != ref.corrupt {
			t.Errorf("%s %s: counters %d/%d/%d, want %d/%d/%d", key, label,
				got.probes, got.packets, got.corrupt, ref.probes, ref.packets, ref.corrupt)
		}
		h := got.hashes()
		want, ok := scanStateGoldens[key]
		switch {
		case !ok:
			t.Errorf("%s %s: no golden recorded; hashes are {%q, %q}", key, label, h[0], h[1])
		case h[0] != want[0]:
			t.Errorf("%s %s: response hash %s, golden %s", key, label, h[0], want[0])
		case h[1] != want[1]:
			t.Errorf("%s %s: snapshot hash %s, golden %s\n%s", key, label, h[1], want[1], got.snap)
		}
	}
	if len(ref.responses) == 0 {
		t.Fatalf("%s: scan saw no responses; the check is vacuous", key)
	}
}

// TestScanDenseMatchesMap holds the scanner's responses, counters and
// deterministic metric snapshots to those of the one-event-per-probe map
// implementation it replaced (scanStateGoldens), across shard counts,
// seeds, and both power-of-two and non-power-of-two populations (the latter
// exercising the permutation's walked Seek).
func TestScanDenseMatchesMap(t *testing.T) {
	src := ipaddr.MustParse("240.0.2.1")
	cases := []struct {
		name    string
		blocks  int
		catalog []netmodel.ASSpec
	}{
		{name: "pow2", blocks: 64},
		// 24 blocks = 6144 addresses: not a power of two, so Seek walks
		// instead of using the closed-form discrete log. The small mixed
		// catalog keeps every behavior class present at this block count.
		{name: "nonpow2", blocks: 24, catalog: testCatalog()},
	}
	for _, cat := range cases {
		for _, seed := range []uint64{5, 99} {
			key := fmt.Sprintf("%s/seed%d", cat.name, seed)
			t.Run(key, func(t *testing.T) {
				pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: cat.blocks, Catalog: cat.catalog})
				checkScanStates(t, key, pop, Config{
					Src: src, Continent: ipmeta.NorthAmerica,
					TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
					Duration: 10 * time.Minute, Seed: seed,
				}, 1, 4, 8)
			})
		}
	}
}

// TestScanStateGoldenNonPow2 pins a 96-block (24,576-address) scan with
// metrics on — so the first-self-response histogram is held to its bytes —
// sequentially and at 1 and 8 shards.
func TestScanStateGoldenNonPow2(t *testing.T) {
	const seed = 1837
	src := ipaddr.MustParse("240.0.2.1")
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 96})
	checkScanStates(t, "nonpow2-96", pop, Config{
		Src: src, Continent: ipmeta.NorthAmerica,
		TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
		Duration: 90 * time.Minute, Seed: seed,
	}, 1, 8)
}
