package survey

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
)

// surveySnap renders a registry's deterministic snapshot for comparison.
func surveySnap(t testing.TB, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// surveyState is everything one survey run produces that the state goldens
// pin: the stats, the binary dataset bytes and the deterministic metric
// snapshot bytes.
type surveyState struct {
	stats      Stats
	data, snap []byte
}

// hashes returns the SHA-256 of the dataset and of the snapshot.
func (s surveyState) hashes() [2]string {
	d, n := sha256.Sum256(s.data), sha256.Sum256(s.snap)
	return [2]string{hex.EncodeToString(d[:]), hex.EncodeToString(n[:])}
}

// runSurveyState runs cfg with a fresh registry — sequentially through Run
// when shards is 0, otherwise through RunSharded — and captures its outputs.
func runSurveyState(t testing.TB, cfg Config, shards int, fabric func(int) simnet.Fabric) surveyState {
	t.Helper()
	cfg.Obs = obs.NewRegistry()
	var mem MemWriter
	var st Stats
	var err error
	if shards == 0 {
		st, err = Run(simnet.NewNetwork(&simnet.Scheduler{}, fabric(0)), cfg, &mem)
	} else {
		st, err = RunSharded(cfg, shards, fabric, &mem)
	}
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Seed: cfg.Seed, Vantage: 'w'})
	for _, r := range mem.Records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return surveyState{stats: st, data: buf.Bytes(), snap: surveySnap(t, cfg.Obs)}
}

// surveyStateGoldens are SHA-256 hashes of {dataset, deterministic
// snapshot}. They were captured from the per-address map implementation of
// the outstanding-probe set and the model's radio state, which the ring and
// the bounded radio table replaced; those must reproduce them byte for byte
// at every shard count.
// For an intentional format change, blank a golden and rerun with -v: the
// failure message prints the newly computed hashes to re-pin.
var surveyStateGoldens = map[string][2]string{
	"default/seed5":  {"dc6d9c986b63480adbbd5d52d2c7573da0c592510f76bbd8485c0db0571afd61", "6bbf52423763c96c529da9bab7a720d01172161e64b637037ab4815b50a0e499"},
	"default/seed99": {"294349cffda9afba488afa574c3017d6d248f89ba2ff8f7973117f72146bd50e", "84c90237eefdee00b0f6e521444720c542d27d969237002a487cfdb7445ca445"},
	"mixed4/seed5":   {"6377cbbff3027b83a4d4da573bd37fb7e1f21de2b2d9e966bba7df2736ce8b13", "8932116b9acf7a59eeba38c85e931136cffc817947cf51f8df14ac44184c47a5"},
	"mixed4/seed99":  {"9b6e233297712681d70e500b4ff5098b5ef7e2ee22c93993aff9285de3b29921", "bfce46c218fdfd33b7e41f1d8121d60112afd592379205e72c74082924d097a5"},
	"pathological":   {"5f695faaf7a9e2775b3c35e0fafee618411a8e3b8e22276945c588fd9e76ab40", "e8445d5162f47ec38112facce58b4c2aaea4f6db43b52f2d8072ec3407914d7d"},
	"nonpow2-96":     {"1ad689277006afa8b264eb3fe03b533afe2426309fb3eb7c1224a94717eba690", "df7ad9c1b5180714e73ff23455e3e50cca6de7b95ecf1ae973bd2bf7cc3d33ff"},
}

// checkSurveyGolden compares one run's outputs with its golden.
func checkSurveyGolden(t *testing.T, key, label string, got surveyState) {
	t.Helper()
	want, ok := surveyStateGoldens[key]
	h := got.hashes()
	if !ok {
		t.Errorf("%s %s: no golden recorded; hashes are {%q, %q}", key, label, h[0], h[1])
		return
	}
	if h[0] != want[0] {
		t.Errorf("%s %s: dataset hash %s, golden %s", key, label, h[0], want[0])
	}
	if h[1] != want[1] {
		t.Errorf("%s %s: snapshot hash %s, golden %s\n%s", key, label, h[1], want[1], got.snap)
	}
}

// checkSurveyStates runs base sequentially and at each shard count, and
// requires every run to reproduce the golden and the same stats.
func checkSurveyStates(t *testing.T, key string, pop *netmodel.Population, base Config, shards ...int) {
	t.Helper()
	var ref *surveyState
	for _, k := range append([]int{0}, shards...) {
		label := fmt.Sprintf("shards=%d", k)
		got := runSurveyState(t, base, k, surveyFabric(pop, base.Vantage))
		if ref == nil {
			ref = &got
		} else if got.stats != ref.stats {
			t.Errorf("%s %s: stats %+v, want %+v", key, label, got.stats, ref.stats)
		}
		checkSurveyGolden(t, key, label, got)
	}
	if ref.stats.Matched == 0 || ref.stats.Timeouts == 0 {
		t.Fatalf("%s: stats %+v leave the check vacuous", key, ref.stats)
	}
}

// TestSurveyDenseMatchesMap holds the outstanding-probe ring and the
// model's bounded radio table to the dataset bytes and deterministic metric
// snapshots of the map implementations they replaced (surveyStateGoldens),
// sequentially and across shard counts.
func TestSurveyDenseMatchesMap(t *testing.T) {
	catalogs := []struct {
		name    string
		blocks  int
		catalog []netmodel.ASSpec
	}{
		{name: "default", blocks: 64, catalog: nil},
		{name: "mixed4", blocks: 32, catalog: testCatalog()},
	}
	for _, cat := range catalogs {
		for _, seed := range []uint64{5, 99} {
			key := fmt.Sprintf("%s/seed%d", cat.name, seed)
			t.Run(key, func(t *testing.T) {
				pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: cat.blocks, Catalog: cat.catalog})
				checkSurveyStates(t, key, pop, Config{
					Vantage: VantageW,
					Blocks:  pop.Blocks(),
					Cycles:  3,
					Seed:    seed,
				}, 1, 4, 8)
			})
		}
	}
}

// TestSurveyDensePathological drives the force-expiry path: an interval
// shorter than the timeout re-probes addresses while their previous probes
// are still outstanding, so every slot force-expires its predecessor. The
// ring must keep several live columns per slot residue and still reproduce
// the golden byte for byte.
func TestSurveyDensePathological(t *testing.T) {
	const seed = 7
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 32, Catalog: testCatalog()})
	checkSurveyStates(t, "pathological", pop, Config{
		Vantage:  VantageW,
		Blocks:   pop.Blocks(),
		Interval: 2 * time.Second, // < Timeout: probes outlive the cycle
		Timeout:  3 * time.Second,
		Sweep:    4 * time.Second,
		Cycles:   4,
		Seed:     seed,
	}, 1, 4, 8)
}

// TestSurveyStateGoldenNonPow2 pins a 96-block population — a block count
// that leaves the last bitmap word of every slot column partly filled, and
// 12-block slices at 8 shards — to its golden.
func TestSurveyStateGoldenNonPow2(t *testing.T) {
	const seed = 1837
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 96})
	checkSurveyStates(t, "nonpow2-96", pop, Config{
		Vantage: VantageW,
		Blocks:  pop.Blocks(),
		Cycles:  3,
		Seed:    seed,
	}, 1, 8)
}

// TestSurveyDenseRejectsBadConfig covers the configuration errors: every
// configuration the ring cannot run is an error from Run and RunSharded,
// never a panic.
func TestSurveyDenseRejectsBadConfig(t *testing.T) {
	pop := netmodel.New(netmodel.Config{Seed: 1, Blocks: 32, Catalog: testCatalog()})
	shuffled := append([]ipaddr.Prefix24(nil), pop.Blocks()...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	dup := append([]ipaddr.Prefix24(nil), pop.Blocks()...)
	dup[1] = dup[0]
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no blocks", Config{}},
		{"out-of-order blocks", Config{Blocks: shuffled}},
		{"duplicate blocks", Config{Blocks: dup}},
		{"zero slot duration", Config{Interval: 100}}, // 100ns / 256 slots
		{"negative interval", Config{Interval: -time.Second}},
		{"negative timeout", Config{Timeout: -time.Second}},
		{"negative sweep", Config{Sweep: -time.Second}},
		{"negative cycles", Config{Cycles: -1}},
		{"oversized ring", Config{Interval: 300 * time.Millisecond, Timeout: 2 * time.Hour, Sweep: time.Second}},
		{"overflowing timeout", Config{Interval: 256, Timeout: 1 << 62, Sweep: 1 << 62}},
	} {
		cfg := tc.cfg
		cfg.Seed = 1
		if cfg.Blocks == nil && tc.name != "no blocks" {
			cfg.Blocks = pop.Blocks()
		}
		var mem MemWriter
		if _, err := Run(simnet.NewNetwork(&simnet.Scheduler{}, surveyFabric(pop, VantageW)(0)), cfg, &mem); err == nil {
			t.Errorf("%s: Run accepted %+v", tc.name, cfg)
		}
		if _, err := RunSharded(cfg, 4, surveyFabric(pop, VantageW), &mem); err == nil {
			t.Errorf("%s: RunSharded accepted %+v", tc.name, cfg)
		}
		if len(mem.Records) != 0 {
			t.Errorf("%s: a rejected config wrote %d records", tc.name, len(mem.Records))
		}
	}
}
