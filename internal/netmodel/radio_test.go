package netmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"timeouts/internal/xrand"
)

// radioProbePlan builds a deterministic, time-monotone sequence of
// (cellular profile, probe time) pairs that revisits addresses at spacings
// straddling every state-machine regime: mid-wake, active, idle-expired,
// and long-evicted.
func radioProbePlan(p *Population, n int) []struct {
	pr Profile
	t  float64
} {
	var cell []Profile
	for i := 0; i < p.NumAddrs() && len(cell) < 64; i++ {
		pr := p.Profile(p.AddrAt(i))
		if pr.Responsive && pr.Class == ClassCellular {
			cell = append(cell, pr)
		}
	}
	plan := make([]struct {
		pr Profile
		t  float64
	}, 0, n)
	t := 1.0
	for i := 0; i < n; i++ {
		r := xrand.Hash(99, uint64(i))
		// Steps from 0.25s (inside a wake) through minutes (idle expiry)
		// to multi-hour gaps (horizon eviction in the radio table).
		switch r % 5 {
		case 0:
			t += 0.25
		case 1:
			t += 3
		case 2:
			t += 45
		case 3:
			t += 200
		case 4:
			t += 9000
		}
		plan = append(plan, struct {
			pr Profile
			t  float64
		}{cell[int(r>>8)%len(cell)], t})
	}
	return plan
}

// radioHoldsGolden is the SHA-256 of the 20,000 holds the radio state
// machine returns over radioProbePlan(testPop(512)), captured from the
// per-address map the bounded table replaced.
const radioHoldsGolden = "1d788ad040b0b295185f7365eeea6ae4f1552a1e943a80a010cbc09e101bc343"

// TestRadioTableHoldsGolden drives the radio table through a probe schedule
// that crosses table growth and horizon eviction, requires the holds to
// match the golden, and requires horizon pruning to keep the table well
// below one entry per probed address.
func TestRadioTableHoldsGolden(t *testing.T) {
	p := testPop(512)
	plan := radioProbePlan(p, 20000)
	if len(plan) == 0 {
		t.Skip("no cellular hosts")
	}
	m := NewModel(p)
	h := sha256.New()
	for _, step := range plan {
		binary.Write(h, binary.BigEndian, math.Float64bits(m.wakeHold(&step.pr, step.t)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != radioHoldsGolden {
		t.Errorf("holds hash %s, golden %s", got, radioHoldsGolden)
	}
	if m.radio.count >= len(plan)/2 {
		t.Fatalf("radio table holds %d entries after %d probes; horizon pruning is not bounding it", m.radio.count, len(plan))
	}
}

// TestDenseResetMatchesFreshModel requires a mid-run ResetRadioState to
// leave the model byte-identical to a brand-new one without degrading into
// a rebuild (it drops the bounded table, O(1)).
func TestDenseResetMatchesFreshModel(t *testing.T) {
	p := testPop(512)
	plan := radioProbePlan(p, 4000)
	if len(plan) == 0 {
		t.Skip("no cellular hosts")
	}
	used := NewModel(p)
	for _, step := range plan[:2000] {
		used.wakeHold(&step.pr, step.t)
	}
	used.ResetRadioState()
	if used.radio.slots != nil || used.radio.count != 0 {
		t.Fatalf("reset left %d entries in a %d-slot table", used.radio.count, len(used.radio.slots))
	}

	fresh := NewModel(p)
	for i, step := range plan[2000:] {
		hu := used.wakeHold(&step.pr, step.t)
		hf := fresh.wakeHold(&step.pr, step.t)
		if hu != hf {
			t.Fatalf("step %d: reset model hold %v, fresh model hold %v", i, hu, hf)
		}
	}
}
