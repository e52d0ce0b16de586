package geo

import (
	"math"
	"testing"
)

// Microbenchmarks for the geometry primitives on the simulator's hot
// path: per-sample distance checks and the classifier's circular
// statistics.

func BenchmarkDist(b *testing.B) {
	p := Point{X: 12.5, Y: 87.25}
	q := Point{X: 910.0, Y: 44.75}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Dist(q)
	}
	_ = sink
}

func BenchmarkCircularMean(b *testing.B) {
	angles := make([]float64, 30)
	for i := range angles {
		angles[i] = float64(i) * 0.21
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += CircularMean(angles)
	}
	_ = sink
}

func BenchmarkCircularMeanFromSums(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += CircularMeanFromSums(12.5, -3.25, 30)
	}
	_ = sink
}

func BenchmarkCircularVarianceFromSums(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += CircularVarianceFromSums(12.5, -3.25, 30)
	}
	_ = sink
}

// BenchmarkNormalizeAngle normalizes the mix the tick path produces:
// atan2 outputs in (-π, π] and bounced headings in [π, 3π), plus an
// occasional multiple turn.
func BenchmarkNormalizeAngle(b *testing.B) {
	angles := make([]float64, 64)
	for i := range angles {
		angles[i] = float64(i)*0.2 - math.Pi
	}
	angles[63] = 41.5
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += NormalizeAngle(angles[i&63])
	}
	_ = sink
}
