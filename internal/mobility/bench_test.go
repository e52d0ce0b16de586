package mobility

import (
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// Microbenchmarks for the two moving patterns' Advance at the
// simulator's 1 Hz sampling period. Both must stay allocation-free.

func BenchmarkRandomWalkAdvance(b *testing.B) {
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 30, Y: 20})
	w, err := NewRandomWalk(bounds, bounds.Center(), 0, 1, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Advance(1)
	}
}

func BenchmarkWaypointsAdvance(b *testing.B) {
	w, err := NewWaypoints(WaypointsConfig{
		Route:    []geo.Point{{}, {X: 120}, {X: 120, Y: 45}, {X: 10, Y: 60}},
		Shuttle:  true,
		MinSpeed: 1, MaxSpeed: 4,
		SpeedJitter: 0.1,
	}, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Advance(1)
	}
}
