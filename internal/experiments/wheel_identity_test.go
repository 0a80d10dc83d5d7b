package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"timeouts/internal/obs"
	"timeouts/internal/survey"
	"timeouts/internal/zmapper"
)

// engineRun captures everything a run produces that the determinism
// contract covers: the survey dataset, the scan responses, the metric
// snapshot and the manifest's deterministic section.
type engineRun struct {
	label     string
	records   []survey.Record
	responses []zmapper.Response
	snap      []byte
	manifest  []byte
}

// runEngineWorkloads runs the instrumented survey + scan workloads at the
// given shard count.
func runEngineWorkloads(t *testing.T, label string, parallel int) engineRun {
	t.Helper()
	lab := NewLab(obsScale)
	lab.Parallel = parallel
	lab.Obs = obs.NewRegistry()
	lab.Trace = obs.NewTracer()
	recs, _, err := lab.Survey()
	if err != nil {
		t.Fatal(err)
	}
	scans, err := lab.Scans(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lab.Obs.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m := obs.BuildManifest("wheel-identity", obsScale.Seed, parallel, nil, nil, lab.Trace, lab.Obs)
	det, err := m.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return engineRun{label: label, records: recs, responses: scans[0].Responses,
		snap: buf.Bytes(), manifest: det}
}

// TestWheelByteIdentity is the shard-count equivalence suite for the
// timing-wheel scheduler: for a fixed seed, the survey dataset, the scan's
// response stream, the deterministic metric snapshot and the manifest's run
// section must be identical sequentially and at 8 shards. The reference
// heap engine the wheel was first proven against is a test oracle in simnet
// now (FuzzWheelVsHeap); the bytes both engines produced are pinned by the
// state and transport goldens.
func TestWheelByteIdentity(t *testing.T) {
	var runs []engineRun
	for _, parallel := range []int{1, 8} {
		runs = append(runs, runEngineWorkloads(t, fmt.Sprintf("wheel/parallel=%d", parallel), parallel))
	}
	ref := runs[0]
	if len(ref.records) == 0 || len(ref.responses) == 0 {
		t.Fatalf("reference run is empty: %d records, %d responses", len(ref.records), len(ref.responses))
	}
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(ref.records, r.records) {
			t.Errorf("survey dataset differs: %s vs %s (%d vs %d records)",
				ref.label, r.label, len(ref.records), len(r.records))
		}
		if !reflect.DeepEqual(ref.responses, r.responses) {
			t.Errorf("scan responses differ: %s vs %s (%d vs %d responses)",
				ref.label, r.label, len(ref.responses), len(r.responses))
		}
		if !bytes.Equal(ref.snap, r.snap) {
			t.Errorf("metric snapshots differ: %s vs %s:\n%s\nvs\n%s",
				ref.label, r.label, ref.snap, r.snap)
		}
		if !bytes.Equal(ref.manifest, r.manifest) {
			t.Errorf("deterministic manifest sections differ: %s vs %s", ref.label, r.label)
		}
	}
}
