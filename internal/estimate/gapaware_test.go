package estimate

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

func mustGapAware(t *testing.T, cfg GapAwareConfig) *GapAwareLE {
	t.Helper()
	e, err := NewGapAwareLE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGapAwareConfigValidate(t *testing.T) {
	if err := DefaultGapAwareConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*GapAwareConfig)
	}{
		{"zero heading alpha", func(c *GapAwareConfig) { c.HeadingAlpha = 0 }},
		{"heading alpha 1", func(c *GapAwareConfig) { c.HeadingAlpha = 1 }},
		{"zero lambda", func(c *GapAwareConfig) { c.Lambda = 0 }},
		{"lambda above 1", func(c *GapAwareConfig) { c.Lambda = 1.5 }},
		{"negative horizon", func(c *GapAwareConfig) { c.MaxHorizon = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultGapAwareConfig()
			tt.mutate(&cfg)
			if _, err := NewGapAwareLE(cfg); err == nil {
				t.Error("want error")
			}
		})
	}
	// Lambda exactly 1 (no forgetting) is valid.
	cfg := DefaultGapAwareConfig()
	cfg.Lambda = 1
	if _, err := NewGapAwareLE(cfg); err != nil {
		t.Errorf("lambda=1 rejected: %v", err)
	}
}

func TestGapAwareLearnsSilenceDrift(t *testing.T) {
	// Simulate the per-step filter's selection effect: the node drifts
	// east at 1 m/s while silent and reports only every 4th second, when
	// a burst moves it 3 m. Observed net over gap 4 is 3+3·1 = 6 m, so a
	// naive net/gap speed is 1.5 m/s — but the regression slope must
	// recover the silent drift of ≈1 m/s (the intercept soaks up the
	// burst).
	e := mustGapAware(t, DefaultGapAwareConfig())
	x := 0.0
	for i := 0; i < 30; i++ {
		x += 3 * 1.0 // three silent seconds at 1 m/s
		x += 3.0     // the reporting burst second
		e.Observe(float64((i+1)*4), geo.Point{X: x})
	}
	if !e.Ready() {
		t.Fatal("not ready")
	}
	// All gaps are identical here (4 s), so the regression degenerates to
	// the ratio estimator (1.5). Mix in gap-2 reports to identify the
	// slope.
	tm := 30.0 * 4
	for i := 0; i < 30; i++ {
		tm += 2
		x += 1.0 + 3.0 // one silent second + burst
		e.Observe(tm, geo.Point{X: x})
		tm += 4
		x += 3*1.0 + 3.0
		e.Observe(tm, geo.Point{X: x})
	}
	slope := e.Slope()
	if math.Abs(slope-1.0) > 0.25 {
		t.Errorf("Slope = %v, want ≈1.0 (silent drift)", slope)
	}
	// Prediction during silence uses the slope, not the inflated ratio.
	pred := e.Predict(tm + 3)
	want := x + 3*1.0
	if math.Abs(pred.X-want) > 1.5 {
		t.Errorf("Predict = %v, want ≈%v", pred.X, want)
	}
}

func TestGapAwareStationaryNode(t *testing.T) {
	e := mustGapAware(t, DefaultGapAwareConfig())
	p := geo.Point{X: 7, Y: 7}
	for i := 0; i < 10; i++ {
		e.Observe(float64(i), p)
	}
	if got := e.Predict(100); got.Dist(p) > 1e-9 {
		t.Errorf("stationary Predict = %v", got)
	}
	if e.Slope() != 0 {
		t.Errorf("stationary Slope = %v", e.Slope())
	}
}

func TestGapAwareSlopeNeverNegative(t *testing.T) {
	// A node oscillating back to its origin produces tiny nets on long
	// gaps; the fitted slope could go negative and must be clamped.
	e := mustGapAware(t, DefaultGapAwareConfig())
	rng := sim.NewRNG(3)
	tm := 0.0
	for i := 0; i < 50; i++ {
		tm += rng.Uniform(1, 6)
		e.Observe(tm, geo.Point{X: rng.Uniform(-0.5, 0.5)})
		if e.Slope() < 0 {
			t.Fatalf("negative slope at observation %d", i)
		}
	}
}

func TestGapAwareMaxHorizonCapsDrift(t *testing.T) {
	cfg := DefaultGapAwareConfig()
	cfg.MaxHorizon = 10
	e := mustGapAware(t, cfg)
	for i := 0; i <= 5; i++ {
		e.Observe(float64(i), geo.Point{X: 2 * float64(i)})
	}
	capped := e.Predict(1000)
	uncapped := e.Predict(5 + 10)
	if capped.Dist(uncapped) > 1e-9 {
		t.Errorf("horizon cap not applied: %v vs %v", capped, uncapped)
	}
}

func TestGapAwareEdgeCases(t *testing.T) {
	e := mustGapAware(t, DefaultGapAwareConfig())
	if got := e.Predict(5); got != (geo.Point{}) {
		t.Errorf("empty Predict = %v", got)
	}
	e.Observe(1, geo.Point{X: 3})
	if e.Ready() {
		t.Error("ready after one observation")
	}
	if got := e.Predict(0.5); got != (geo.Point{X: 3}) {
		t.Errorf("past Predict = %v", got)
	}
	// Non-advancing observation ignored.
	e.Observe(1, geo.Point{X: 50})
	if e.nSamples != 0 {
		t.Error("non-advancing observation counted")
	}
}

func TestGapAwareBeatsBrownOnFilteredStream(t *testing.T) {
	// The package-level claim, as a unit test: on a per-step-filtered
	// stream (silence ⇒ slow), gap-aware beats both last-known and Brown.
	rng := sim.NewRNG(17)
	gap := mustGapAware(t, DefaultGapAwareConfig())
	brown, err := NewBrownLE(0.5)
	if err != nil {
		t.Fatal(err)
	}
	last := NewLastKnown()

	const dth = 1.875 // 0.75 × mean of U(1,4)
	pos := geo.Point{}
	var prev geo.Point
	var gapErr, brownErr, lastErr float64
	n := 0
	for i := 0; i < 3000; i++ {
		tm := float64(i)
		speed := rng.Uniform(1, 4)
		pos = pos.Add(geo.Vec{DX: speed})
		if pos.Dist(prev) >= dth || i == 0 {
			prev = pos
			gap.Observe(tm, pos)
			brown.Observe(tm, pos)
			last.Observe(tm, pos)
			continue
		}
		if !gap.Ready() || !brown.Ready() {
			continue
		}
		gapErr += pos.Dist(gap.Predict(tm))
		brownErr += pos.Dist(brown.Predict(tm))
		lastErr += pos.Dist(last.Predict(tm))
		n++
	}
	if n == 0 {
		t.Fatal("nothing was filtered")
	}
	if gapErr >= lastErr {
		t.Errorf("gap-aware (%.1f) not better than last-known (%.1f)", gapErr, lastErr)
	}
	if gapErr >= brownErr {
		t.Errorf("gap-aware (%.1f) not better than brown (%.1f)", gapErr, brownErr)
	}
}
