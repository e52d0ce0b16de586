package estimate

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// TestResetMatchesFresh checks every estimator's Reset: an estimator
// that has observed one stream and is then reset must behave bit for
// bit like a fresh one from the same constructor on a second stream —
// the same Ready and the same Predict, through observations and gaps.
func TestResetMatchesFresh(t *testing.T) {
	for _, c := range []struct {
		name string
		make func() PositionEstimator
	}{
		{"LastKnown", func() PositionEstimator { return NewLastKnown() }},
		{"BrownLE", func() PositionEstimator { e, _ := NewBrownLE(0.3); return e }},
		{"SingleLE", func() PositionEstimator { e, _ := NewSingleLE(0.7); return e }},
		{"DeadReckoning", func() PositionEstimator { return NewDeadReckoning() }},
		{"AR1LE", func() PositionEstimator { return NewAR1LE(0.9) }},
		{"GapAwareLE", func() PositionEstimator {
			e, _ := NewGapAwareLE(GapAwareConfig{HeadingAlpha: 0.4, Lambda: 0.95, MaxHorizon: 30})
			return e
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			used := c.make()
			feed(used, sim.NewRNG(1), nil)
			used.Reset()
			fresh := c.make()
			// The second stream restarts at time 0, before the first one
			// ended, so an estimator that kept its last observation time
			// would refuse the first steps.
			var got, want []uint64
			feed(used, sim.NewRNG(2), &got)
			feed(fresh, sim.NewRNG(2), &want)
			if len(got) != len(want) {
				t.Fatalf("reset estimator gave %d outputs, fresh %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("output %d: reset estimator %#x, fresh %#x", i, got[i], want[i])
				}
			}
		})
	}
}

// feed drives e over 200 s of a random walk, observing about half the
// seconds, and appends to out (when non-nil) the bits of Ready and of
// a prediction before the first observation and after every second,
// observed or not.
func feed(e PositionEstimator, rng *sim.RNG, out *[]uint64) {
	record := func(t float64) {
		if out == nil {
			return
		}
		ready := uint64(0)
		if e.Ready() {
			ready = 1
		}
		q := e.Predict(t)
		*out = append(*out, ready, math.Float64bits(q.X), math.Float64bits(q.Y))
	}
	record(0.5)
	p := geo.Point{X: rng.Uniform(0, 500), Y: rng.Uniform(0, 500)}
	for s := 1; s <= 200; s++ {
		now := float64(s)
		p = p.Add(geo.Vec{DX: rng.Uniform(-2, 2), DY: rng.Uniform(-2, 2)})
		if rng.Bool(0.5) {
			e.Observe(now, p)
		}
		record(now + 0.5)
	}
}
