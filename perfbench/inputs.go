package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"timeouts/internal/advisor"
	"timeouts/internal/ipaddr"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
)

// inputClock stamps the freshness of every sample in the generated
// checkpoint, so its bytes are a pure function of the seed. advisord serves
// with no staleness TTL by default, so the stamp's age never matters.
const inputClock = int64(1_700_000_000_000_000_000)

// inputEpoch is the epoch the generated checkpoint is saved under.
const inputEpoch = 1

// inputs are the serve and ingest workloads' fixed inputs, generated once
// per checkout from the default seed (untimed) and checked against the
// recorded digests on every run.
type inputs struct {
	ckptDir     string // holds the one checkpoint generation advisord recovers
	dataset     string // the vantage-c survey advisord ingests, TOSV
	refSnapshot string // expected final /snapshot after that ingest, epoch blanked
}

func inputPaths(build string) inputs {
	dir := filepath.Join(build, "inputs")
	return inputs{
		ckptDir:     filepath.Join(dir, "ckpt"),
		dataset:     filepath.Join(dir, "survey-c.tosv"),
		refSnapshot: filepath.Join(dir, "snapshot-after-ingest.json"),
	}
}

// ckptFile is the checkpoint generation's path.
func (in inputs) ckptFile() string {
	return filepath.Join(in.ckptDir, fmt.Sprintf("ckpt-%016x.tadv", inputEpoch))
}

// verify checks every input against its recorded digest.
func (in inputs) verify() error {
	for _, f := range []struct{ path, want string }{
		{in.ckptFile(), checkpointDigest},
		{in.dataset, datasetDigest},
		{in.refSnapshot, snapshotDigest},
	} {
		got, err := fileDigest(f.path)
		if err != nil {
			return err
		}
		if got != f.want {
			return fmt.Errorf("input %s has digest %s, recorded %s", filepath.Base(f.path), got, f.want)
		}
	}
	return nil
}

// ensureInputs returns the verified inputs, generating them if they are
// missing or do not match their digests.
func ensureInputs(build string) (inputs, error) {
	in := inputPaths(build)
	if in.verify() == nil {
		return in, nil
	}
	if err := generateInputs(in); err != nil {
		return in, fmt.Errorf("generating inputs: %w", err)
	}
	return in, in.verify()
}

// surveyFabric returns a shard fabric factory for a survey from v, built
// as advisord -sim builds its own.
func surveyFabric(pop *netmodel.Population, v survey.Vantage) func(int) simnet.Fabric {
	return func(int) simnet.Fabric {
		m := netmodel.NewModel(pop)
		m.AddVantage(v.Addr, v.Continent)
		return m
	}
}

// generateInputs writes the checkpoint (a vantage-w survey's store), the
// vantage-c dataset, and the snapshot advisord must publish after
// recovering the one and ingesting the other.
func generateInputs(in inputs) error {
	if err := os.RemoveAll(filepath.Dir(in.ckptDir)); err != nil {
		return err
	}
	if err := os.MkdirAll(in.ckptDir, 0o755); err != nil {
		return err
	}
	pop := netmodel.New(netmodel.Config{Seed: defaultSeed, Blocks: pipeBlocks})
	cfg := func(v survey.Vantage) survey.Config {
		return survey.Config{Vantage: v, Blocks: pop.Blocks(), Cycles: pipeCycles, Seed: defaultSeed}
	}

	st := advisor.NewStore()
	st.SetClock(func() int64 { return inputClock })
	if _, err := survey.RunSharded(cfg(survey.VantageW), shards, surveyFabric(pop, survey.VantageW), st); err != nil {
		return err
	}
	ck := &advisor.Checkpointer{Dir: in.ckptDir, Keep: 1}
	if _, err := ck.Save(st, inputEpoch); err != nil {
		return err
	}

	f, err := os.Create(in.dataset)
	if err != nil {
		return err
	}
	w := survey.NewWriter(f, survey.Header{Seed: defaultSeed, Vantage: survey.VantageC.Name})
	if _, err := survey.RunSharded(cfg(survey.VantageC), shards, surveyFabric(pop, survey.VantageC), w); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	ref, err := referenceSnapshot(in)
	if err != nil {
		return err
	}
	return os.WriteFile(in.refSnapshot, ref, 0o644)
}

// referenceSnapshot rebuilds, in-process, the advice advisord publishes
// after recovering the checkpoint and ingesting the dataset.
func referenceSnapshot(in inputs) ([]byte, error) {
	cf, err := os.Open(in.ckptFile())
	if err != nil {
		return nil, err
	}
	st, epoch, err := advisor.DecodeCheckpoint(cf)
	cf.Close()
	if err != nil {
		return nil, err
	}
	df, err := os.Open(in.dataset)
	if err != nil {
		return nil, err
	}
	defer df.Close()
	src, _, err := survey.OpenSource(df)
	if err != nil {
		return nil, err
	}
	if _, err := advisor.IngestSource(st, src); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := st.Snapshot(epoch).WriteJSON(&b); err != nil {
		return nil, err
	}
	return blankEpoch(b.Bytes()), nil
}

var epochLine = regexp.MustCompile(`(?m)^  "epoch": \d+,$`)

// blankEpoch zeroes the top-level epoch of a WriteJSON snapshot, which is
// the one field allowed to differ between advisord and the reference.
func blankEpoch(snap []byte) []byte {
	return epochLine.ReplaceAll(snap, []byte(`  "epoch": 0,`))
}

// query is one /timeout request of the mix and the timeout_ns advisord
// must answer (-1: not checked).
type query struct {
	path   string
	wantNS int64
}

// mixChoice states how the request mix is drawn. The proportions are a
// choice, not measured traffic: nothing in the repository records how
// often advisord's clients ask about unsurveyed addresses or at which
// levels. Each run reports the share of prefix answers it actually got.
const mixChoice = "unverified choice, not representative traffic: 3 in 4 addresses uniform over the 512 surveyed /24s, " +
	"1 in 4 uniform over 10.0.0.0/8 (population fallback); capture and coverage each uniform over the standard levels"

// mixSize is the number of distinct queries; the load generator cycles
// through them.
const mixSize = 4096

// buildMix makes the seeded request mix: addresses in surveyed /24s (prefix
// advice), valid addresses outside them (population fallback), and capture
// and coverage across the standard levels. When snap is non-nil each query
// carries the timeout it must be answered with.
func buildMix(seed uint64, blocks []ipaddr.Prefix24, snap *advisor.Snapshot) ([]query, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	levels := stats.StandardPercentiles
	out := make([]query, mixSize)
	for i := range out {
		var addr ipaddr.Addr
		if rng.Intn(4) == 0 {
			// Outside every surveyed block: 10.0.0.0/8 is never allocated
			// to the synthetic population.
			addr = ipaddr.Addr(10<<24 | uint32(rng.Intn(1<<24)))
		} else {
			addr = blocks[rng.Intn(len(blocks))].Addr(byte(rng.Intn(256)))
		}
		capture, coverage := levels[rng.Intn(len(levels))], levels[rng.Intn(len(levels))]
		q := query{
			path:   fmt.Sprintf("/timeout?addr=%s&capture=%g&coverage=%g", addr, capture, coverage),
			wantNS: -1,
		}
		if snap != nil {
			adv, err := snap.Lookup(addr, capture, coverage)
			if err != nil {
				return nil, fmt.Errorf("reference lookup %s: %w", q.path, err)
			}
			q.wantNS = int64(adv.Timeout)
		}
		out[i] = q
	}
	return out, nil
}

// mixDigest digests the requests a mix sends, which must not depend on
// the program under test.
func mixDigest(mix []query) string {
	h := sha256.New()
	for _, q := range mix {
		fmt.Fprintln(h, q.path)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mixText renders a mix one "path want_ns" line per query, the form the
// load generator reads and the mix digest covers.
func mixText(mix []query) string {
	var b strings.Builder
	for _, q := range mix {
		fmt.Fprintf(&b, "%s %d\n", q.path, q.wantNS)
	}
	return b.String()
}
