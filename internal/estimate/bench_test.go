package estimate

import (
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// BenchmarkGapAwareLE drives one estimator the way a broker does: one
// call per 1 Hz tick, an Observe when the filter forwards the sample
// (about two in five ticks) and a Predict on every silent tick. The
// seeded stream is precomputed, so the loop times the estimator alone;
// it must stay allocation-free.
func BenchmarkGapAwareLE(b *testing.B) {
	const n = 1024
	type tick struct {
		p        geo.Point
		received bool
	}
	rng := sim.NewRNG(1)
	stream := make([]tick, n)
	p, heading := geo.Point{}, rng.Heading()
	for i := range stream {
		if rng.Bool(0.1) {
			heading += rng.Normal(0, 1)
		}
		p = p.Add(geo.FromHeading(heading, rng.Uniform(0, 3)))
		stream[i] = tick{p: p, received: rng.Bool(0.4)}
	}
	e, err := NewGapAwareLE(DefaultGapAwareConfig())
	if err != nil {
		b.Fatal(err)
	}
	var sink geo.Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := &stream[i%n]
		now := float64(i)
		if tk.received {
			e.Observe(now, tk.p)
		} else if e.Ready() {
			sink = e.Predict(now)
		}
	}
	_ = sink
}
