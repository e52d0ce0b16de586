package main

import (
	"math"
	"sort"
)

// summary is a metric's distribution over the runs of one set.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize reports median and quartiles of vs. The quartiles use the
// exclusive method of Python's statistics.quantiles(vs, n=4), so they
// match what a reader computes from the samples by hand.
func summarize(vs []float64) summary {
	s := summary{N: len(vs), Samples: append([]float64(nil), vs...)}
	if len(vs) == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	if len(sorted) == 1 {
		s.Q1, s.Q3 = sorted[0], sorted[0]
		return s
	}
	s.Q1 = exclusiveQuantile(sorted, 1, 4)
	s.Q3 = exclusiveQuantile(sorted, 3, 4)
	return s
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// exclusiveQuantile is the i-th of n cut points of an ascending slice of
// at least two values, by statistics.quantiles' "exclusive" method.
func exclusiveQuantile(sorted []float64, i, n int) float64 {
	ld := len(sorted)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / float64(n)
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of vs,
// sorting vs in place; 0 for an empty slice.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	idx := int(math.Ceil(q*float64(len(vs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vs[idx]
}

// medianOf returns the median of vs without modifying it.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return median(sorted)
}
