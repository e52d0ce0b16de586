package broker

import (
	"testing"

	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// TestNoLEMatchesLastKnownFactory pins the "without LE" broker: a nil
// factory keeps no per-node estimator, yet it must behave exactly like a
// broker whose every node carries a last-known-location estimator — the
// same beliefs, the same Estimated labels and the same counters — over
// random receive, miss and Forget sequences.
func TestNoLEMatchesLastKnownFactory(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		nilB := New(nil)
		lkB := New(func() estimate.PositionEstimator { return estimate.NewLastKnown() })
		if seed%2 == 0 {
			nilB.Preallocate(16)
			lkB.Preallocate(16)
		}
		rng := sim.NewRNG(seed)
		for step := 0; step < 2000; step++ {
			node := rng.Intn(24) - 4 // a few IDs outside the dense window too
			now := float64(step)
			p := geo.Point{X: rng.Uniform(-100, 100), Y: rng.Uniform(-100, 100)}
			switch r := rng.Float64(); {
			case r < 0.05:
				nilB.Forget(node)
				lkB.Forget(node)
			case r < 0.10:
				eN, errN := nilB.MissLU(node, now)
				eL, errL := lkB.MissLU(node, now)
				if eN != eL || (errN == nil) != (errL == nil) {
					t.Fatalf("seed %d step %d: MissLU = %+v/%v, want %+v/%v", seed, step, eN, errN, eL, errL)
				}
			default:
				received := rng.Bool(0.4)
				eN, okN := nilB.Step(node, now, p, received)
				eL, okL := lkB.Step(node, now, p, received)
				if eN != eL || okN != okL {
					t.Fatalf("seed %d step %d: Step = %+v/%v, want %+v/%v", seed, step, eN, okN, eL, okL)
				}
			}
			for id := -4; id < 20; id++ {
				eN, okN := nilB.Location(id)
				eL, okL := lkB.Location(id)
				if eN != eL || okN != okL {
					t.Fatalf("seed %d step %d: Location(%d) = %+v/%v, want %+v/%v", seed, step, id, eN, okN, eL, okL)
				}
			}
		}
		if nilB.ReceivedLUs() != lkB.ReceivedLUs() || nilB.EstimatedLUs() != lkB.EstimatedLUs() {
			t.Fatalf("seed %d: counters = %d/%d, want %d/%d", seed,
				nilB.ReceivedLUs(), nilB.EstimatedLUs(), lkB.ReceivedLUs(), lkB.EstimatedLUs())
		}
		if nilB.EstimatedLUs() == 0 {
			t.Fatalf("seed %d: no miss was served, the comparison is vacuous", seed)
		}
		gotAll, wantAll := nilB.Locations(), lkB.Locations()
		if len(gotAll) != len(wantAll) {
			t.Fatalf("seed %d: Locations has %d entries, want %d", seed, len(gotAll), len(wantAll))
		}
		for i := range wantAll {
			if gotAll[i] != wantAll[i] {
				t.Fatalf("seed %d: Locations[%d] = %+v, want %+v", seed, i, gotAll[i], wantAll[i])
			}
		}
	}
}

// TestNoLEBirthAllocs pins the birth cost of the "without LE" broker:
// once Preallocate has sized the location DB, a node's first report
// allocates nothing.
func TestNoLEBirthAllocs(t *testing.T) {
	const births = 1000
	b := New(nil)
	b.Preallocate(births + 1)
	node := 0
	allocs := testing.AllocsPerRun(births, func() {
		b.Step(node, 1, geo.Point{X: float64(node)}, true)
		node++
	})
	if allocs != 0 {
		t.Fatalf("allocs per no-LE birth = %v, want 0", allocs)
	}
}
