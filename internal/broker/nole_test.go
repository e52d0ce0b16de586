package broker

import (
	"math"
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

// TestReportedMatchesNoLEBroker pins the one-broker lane: the last
// report that Step returns next to the belief of an estimating broker
// (Belief.Reported) must be, bit for bit and with the same ok flag, the
// belief of a broker without an estimator stepped on the same stream —
// over seeded receive, miss and Forget sequences in which nodes rejoin
// after being forgotten and a few IDs never report at all. This is what
// lets a lane step only its with-LE broker and read the no-LE error off
// the last report.
func TestReportedMatchesNoLEBroker(t *testing.T) {
	gapAware := func() estimate.PositionEstimator {
		le, err := estimate.NewGapAwareLE(estimate.DefaultGapAwareConfig())
		if err != nil {
			t.Fatal(err)
		}
		return le
	}
	for _, tc := range []struct {
		name    string
		factory estimate.Factory
	}{{"gap-aware", gapAware}, {"brown", brownFactory(t)}} {
		for seed := int64(1); seed <= 5; seed++ {
			estB, nilB := New(tc.factory), New(nil)
			if seed%2 == 0 {
				estB.Preallocate(16)
				nilB.Preallocate(16)
			}
			rng := sim.NewRNG(seed)
			forgotten := map[int]bool{}
			var rejoins, absentSteps, estimatedApart int
			for step := 0; step < 4000; step++ {
				// IDs 20..23 never report; a few lie outside the dense
				// window.
				node := rng.Intn(28) - 4
				now := float64(step) / 4
				p := geo.Point{X: 3*now + float64(node) + rng.Uniform(-2, 2), Y: -now + rng.Uniform(-2, 2)}
				switch r := rng.Float64(); {
				case r < 0.03:
					if _, on := nilB.Location(node); on {
						forgotten[node] = true
					}
					estB.Forget(node)
					nilB.Forget(node)
					continue
				case r < 0.06:
					estB.MissLU(node, now)
					nilB.MissLU(node, now)
					continue
				}
				received := node < 20 && rng.Bool(0.4)
				if received && forgotten[node] {
					rejoins++
					delete(forgotten, node)
				}
				got, okE := estB.Step(node, now, p, received)
				want, okN := nilB.Step(node, now, p, received)
				if okE != okN ||
					math.Float64bits(got.Reported.X) != math.Float64bits(want.Pos.X) ||
					math.Float64bits(got.Reported.Y) != math.Float64bits(want.Pos.Y) {
					t.Fatalf("%s seed %d step %d node %d: Reported %v/%v, no-LE belief %v/%v",
						tc.name, seed, step, node, got.Reported, okE, want.Pos, okN)
				}
				if !okE {
					absentSteps++
				}
				if got.Estimated && got.Pos != got.Reported {
					estimatedApart++
				}
			}
			if rejoins == 0 || absentSteps == 0 || estimatedApart == 0 {
				t.Fatalf("%s seed %d: %d rejoins, %d absent steps, %d estimated beliefs apart from the last report; the comparison is vacuous",
					tc.name, seed, rejoins, absentSteps, estimatedApart)
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
