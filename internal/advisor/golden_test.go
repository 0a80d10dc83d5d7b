package advisor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/survey"
)

// storeGoldens are SHA-256 hashes of the store's two byte-level outputs —
// the TADVCKP1 checkpoint and the WriteJSON advice snapshot — captured on
// the original three-map Store layout (sketches, freshness stamps and
// open-probe rings each in their own map). Any later layout of the store
// must reproduce them byte for byte: the checkpoint is an on-disk format
// and the snapshot is the advice itself. For an intentional format change,
// blank a golden and rerun with -v: the failure message prints the newly
// computed hash to re-pin.
var storeGoldens = map[string]string{
	"ckpt-store/checkpoint": "0008d56378a3fd0e98322794145f6630379be24b586de74959625abf56b0f274",
	"ckpt-store/snapshot":   "11e78fd40db3e1fb931a0f89aa3829d2c1e72037f38089006caa2aa379fadfbb",
	"sim42/checkpoint":      "ef13ed23b089bd3efa2098fbaf94c2828b751f390401c041f53e596f0f123d97",
	"sim42/snapshot":        "8252790534e3ee688b5128fffd5618a1ccaec53e4522fae54ba9c6e9f386e693",
}

// goldenSimStore ingests a fixed seed-42 simulated survey into a store whose
// freshness clock is a counter, so every stamp — and with it the checkpoint
// bytes — is a pure function of the record stream and the number of samples
// the store took.
func goldenSimStore(t *testing.T) *Store {
	t.Helper()
	const seed = 42
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 64})
	model := netmodel.NewModel(pop)
	model.AddVantage(survey.VantageW.Addr, survey.VantageW.Continent)
	cfg := survey.Config{Vantage: survey.VantageW, Blocks: pop.Blocks(), Cycles: 4, Seed: seed}
	var mem survey.MemWriter
	if _, err := survey.Run(simnet.NewNetwork(&simnet.Scheduler{}, model), cfg, &mem); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := NewStore()
	var tick int64
	st.SetClock(func() int64 { tick++; return tick })
	for _, r := range mem.Records {
		st.Observe(r)
	}
	if st.delayed == 0 || st.Prefixes() < 2 {
		t.Fatalf("degenerate golden ingest: %d delayed samples, %d prefixes", st.delayed, st.Prefixes())
	}
	return st
}

// storeOutputs returns the checkpoint and snapshot bytes of st at epoch.
func storeOutputs(t *testing.T, st *Store, epoch uint64) (ckpt, snap []byte) {
	t.Helper()
	var cb, sb bytes.Buffer
	if err := EncodeCheckpoint(&cb, st, epoch); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(epoch).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), sb.Bytes()
}

func checkGolden(t *testing.T, name string, b []byte) {
	t.Helper()
	h := sha256.Sum256(b)
	got := hex.EncodeToString(h[:])
	want := storeGoldens[name]
	if want == "" {
		t.Errorf("%s: no golden recorded; current hash is %s", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: hash %s differs from golden %s", name, got, want)
	}
}

// TestStoreGoldens pins the checkpoint and snapshot bytes of the
// hand-built checkpoint test store and of a seed-42 simulated survey
// ingest against the hashes captured on the original store layout.
func TestStoreGoldens(t *testing.T) {
	now := int64(1_000_000_000)
	ckpt, snap := storeOutputs(t, ckptTestStore(&now), 42)
	checkGolden(t, "ckpt-store/checkpoint", ckpt)
	checkGolden(t, "ckpt-store/snapshot", snap)

	ckpt, snap = storeOutputs(t, goldenSimStore(t), 7)
	checkGolden(t, "sim42/checkpoint", ckpt)
	checkGolden(t, "sim42/snapshot", snap)
}

// TestCheckpointFileFromOriginalLayout decodes a checkpoint file written by
// the original store layout (testdata/ckpt-store.tadv, the checkpoint test
// store at epoch 42): it must still decode, re-encode to the same bytes,
// and publish the same advice.
func TestCheckpointFileFromOriginalLayout(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ckpt-store.tadv"))
	if err != nil {
		t.Fatal(err)
	}
	st, epoch, err := DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 {
		t.Fatalf("epoch = %d, want 42", epoch)
	}
	ckpt, snap := storeOutputs(t, st, epoch)
	if !bytes.Equal(ckpt, data) {
		t.Error("re-encoded checkpoint differs from the file")
	}
	checkGolden(t, "ckpt-store/snapshot", snap)
}
