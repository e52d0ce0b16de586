package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// summaryOracle records what a Summary with the given stride should
// record, the naive way: every landed sample, kept in offer order.
type summaryOracle struct {
	stride, offers int
	recorded       []float64
}

func (o *summaryOracle) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	o.offers++
	if (o.offers-1)%o.stride == 0 {
		o.recorded = append(o.recorded, v)
	}
}

// sorted returns the recorded samples in ascending order. sort.Float64s
// leaves −0 and +0 in no defined order, and Summary reports every zero
// rank as +0, so the reference folds −0 into +0.
func (o *summaryOracle) sorted() []float64 {
	out := make([]float64, len(o.recorded))
	for i, v := range o.recorded {
		if v == 0 {
			v = 0
		}
		out[i] = v
	}
	sort.Float64s(out)
	return out
}

// quantile is nearest-rank over the sorted samples, the definition the
// sort-based Summary implemented.
func (o *summaryOracle) quantile(q float64) float64 {
	s := o.sorted()
	if len(s) == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func (o *summaryOracle) mean() float64 {
	if len(o.recorded) == 0 {
		return 0
	}
	var sum float64
	for _, v := range o.recorded {
		sum += v
	}
	return sum / float64(len(o.recorded))
}

// summaryInputs returns the oracle test's sample sets: hand-picked edge
// cases plus seeded random mixes of exact zeros, −0, negatives,
// duplicates and NaNs.
func summaryInputs() map[string][]float64 {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	in := map[string][]float64{
		"empty":         nil,
		"one":           {3.5},
		"one zero":      {0},
		"one neg zero":  {negZero},
		"all zero":      {0, 0, negZero, 0, negZero, 0, 0},
		"only nan":      {nan, nan},
		"only negative": {-1, -4, -2, -4, -0.5},
		"neg and zero":  {-1, 0, -3, negZero, 0},
		"duplicates":    {2, 2, 2, 0, 2, 1, 1, 2, 0, 2},
		"infinities":    {math.Inf(1), 0, -2, math.Inf(-1), 5, 0},
		"mixed":         {0, -1.5, 3, nan, negZero, 3, 0, 7, -1.5, 0, 2, nan, 0},
	}
	r := rand.New(rand.NewPCG(13, 7))
	for _, spec := range []struct {
		name      string
		n         int
		zeroShare float64
	}{
		{"random 60% zeros", 5000, 0.6},
		{"random 97% zeros", 5000, 0.97},
		{"random no zeros", 3000, 0},
		{"random small", 37, 0.5},
	} {
		vs := make([]float64, spec.n)
		for i := range vs {
			switch u := r.Float64(); {
			case u < spec.zeroShare:
				vs[i] = 0
				if r.IntN(4) == 0 {
					vs[i] = negZero
				}
			case u < spec.zeroShare+0.02:
				vs[i] = nan
			case u < spec.zeroShare+0.1:
				vs[i] = -r.Float64() * 10
			default:
				// A coarse grid keeps duplicates frequent.
				vs[i] = float64(r.IntN(400)) / 8
			}
		}
		in[spec.name] = vs
	}
	return in
}

// TestSummaryMatchesSortOracle checks every Summary statistic against
// nearest-rank over a sorted copy of the recorded samples, to the bit,
// at strides 1, 2 and 7 and with queries repeated in shuffled order so
// earlier selections have reordered the stored samples.
func TestSummaryMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 11))
	for name, vs := range summaryInputs() {
		for _, stride := range []int{1, 2, 7} {
			var s Summary
			s.SetStride(stride)
			o := summaryOracle{stride: stride}
			for _, v := range vs {
				s.Add(v)
				o.add(v)
			}
			if s.N() != len(o.recorded) {
				t.Errorf("%s stride %d: N = %d, want %d", name, stride, s.N(), len(o.recorded))
			}
			check := func(what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s stride %d: %s = %v (%#x), want %v (%#x)",
						name, stride, what, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			check("Mean", s.Mean(), o.mean())
			qs := []float64{0, 0.5, 0.9, 0.99, 1, -0.5, 1.5, math.NaN()}
			for range 10 {
				qs = append(qs, r.Float64())
			}
			for pass := range 2 {
				r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
				for _, q := range qs {
					check("Quantile", s.Quantile(q), o.quantile(q))
				}
				check("Max", s.Max(), o.quantile(1))
				if pass == 0 {
					q := s.Quantiles()
					check("Quantiles.P50", q.P50, o.quantile(0.5))
					check("Quantiles.P90", q.P90, o.quantile(0.9))
					check("Quantiles.P99", q.P99, o.quantile(0.99))
					check("Quantiles.Max", q.Max, o.quantile(1))
				}
			}
			check("Mean after selection", s.Mean(), o.mean())
		}
	}
}

// TestSummaryZeroAdvancesStride checks a zero is an offer like any
// other: it consumes its stride slot whether or not it lands.
func TestSummaryZeroAdvancesStride(t *testing.T) {
	var s Summary
	s.SetStride(2)
	for _, v := range []float64{0, 5, 0, 6, 7, 0} {
		s.Add(v) // lands: 0, 0, 7
	}
	if s.N() != 3 {
		t.Fatalf("N = %d, want 3", s.N())
	}
	if got := s.Max(); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %v, want 0", got)
	}
}

// TestSummaryStoresOnlyNonZero pins the memory claim: exact zeros are
// counted, not stored.
func TestSummaryStoresOnlyNonZero(t *testing.T) {
	var s Summary
	for i := range 1000 {
		v := 0.0
		if i%4 == 0 {
			v = float64(i + 1)
		}
		s.Add(v)
	}
	if s.N() != 1000 || len(s.samples) != 250 {
		t.Errorf("N = %d stored = %d, want 1000 and 250", s.N(), len(s.samples))
	}
}

// BenchmarkSummaryPercentiles records 2M samples with 60% exact zeros,
// the ADF 1.00av error mix, and publishes P50/P90/P99/Max. Nothing is
// reserved, so B/op is the storage the recorded samples grow to.
func BenchmarkSummaryPercentiles(b *testing.B) {
	const n = 2_000_000
	vs := make([]float64, n)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range vs {
		if r.Float64() >= 0.6 {
			vs[i] = r.ExpFloat64() * 3
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		var s Summary
		for _, v := range vs {
			s.Add(v)
		}
		_ = s.Quantiles()
	}
}
