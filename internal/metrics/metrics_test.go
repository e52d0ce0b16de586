package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountSeries(t *testing.T) {
	var s CountSeries
	s.Incr(0.2)
	s.Incr(0.9)
	s.Add(2.5, 3)
	got := s.Series()
	want := []float64{2, 0, 3}
	if len(got) != len(want) {
		t.Fatalf("Series = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
	if s.Total() != 5 {
		t.Errorf("Total = %v", s.Total())
	}
	if s.Mean() != 5.0/3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Len() != 3 {
		t.Errorf("Len = %v", s.Len())
	}
}

func TestCountSeriesIgnoresInvalid(t *testing.T) {
	var s CountSeries
	s.Add(-1, 5)
	s.Add(math.NaN(), 5)
	if s.Total() != 0 || s.Len() != 0 {
		t.Errorf("invalid inputs recorded: total=%v len=%d", s.Total(), s.Len())
	}
}

func TestCountSeriesEmptyMean(t *testing.T) {
	var s CountSeries
	if s.Mean() != 0 {
		t.Errorf("empty Mean = %v", s.Mean())
	}
	// Series returns a copy, not a live view.
	s.Incr(0)
	cp := s.Series()
	cp[0] = 99
	if s.Series()[0] != 1 {
		t.Error("Series exposed internal slice")
	}
}

func TestAccumulate(t *testing.T) {
	got := Accumulate([]float64{1, 2, 3, 0})
	want := []float64{1, 3, 6, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Accumulate = %v, want %v", got, want)
		}
	}
	if len(Accumulate(nil)) != 0 {
		t.Error("Accumulate(nil) not empty")
	}
}

func TestAccumulateMonotoneForNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		series := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			series[i] = math.Abs(math.Mod(v, 100))
		}
		acc := Accumulate(series)
		for i := 1; i < len(acc); i++ {
			if acc[i] < acc[i-1] {
				return false
			}
		}
		return len(acc) == 0 || math.Abs(acc[len(acc)-1]-sum(series)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestDownsample(t *testing.T) {
	in := []float64{1, 3, 5, 7, 9}
	got := Downsample(in, 2)
	want := []float64{2, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("Downsample = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Downsample = %v, want %v", got, want)
		}
	}
	// width <= 1 returns a copy of the input.
	same := Downsample(in, 0)
	if len(same) != len(in) {
		t.Errorf("Downsample(width=0) = %v", same)
	}
	same[0] = 42
	if in[0] != 1 {
		t.Error("Downsample(width<=1) aliased input")
	}
}

func TestRMSESeries(t *testing.T) {
	var s RMSESeries
	s.Add(0, 3)
	s.Add(0.5, 4)
	s.Add(2, 6)
	series := s.Series()
	if len(series) != 3 {
		t.Fatalf("Series = %v", series)
	}
	want0 := math.Sqrt((9.0 + 16.0) / 2)
	if math.Abs(series[0]-want0) > 1e-9 {
		t.Errorf("bucket 0 = %v, want %v", series[0], want0)
	}
	if series[1] != 0 {
		t.Errorf("empty bucket = %v, want 0", series[1])
	}
	if series[2] != 6 {
		t.Errorf("bucket 2 = %v, want 6", series[2])
	}
	wantAll := math.Sqrt((9.0 + 16.0 + 36.0) / 3)
	if math.Abs(s.Overall()-wantAll) > 1e-9 {
		t.Errorf("Overall = %v, want %v", s.Overall(), wantAll)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestRMSESeriesIgnoresInvalid(t *testing.T) {
	var s RMSESeries
	s.Add(-1, 3)
	s.Add(1, math.NaN())
	s.Add(math.NaN(), 1)
	if s.Len() != 0 && s.Overall() != 0 {
		t.Error("invalid inputs recorded")
	}
	var empty RMSESeries
	if empty.Overall() != 0 {
		t.Error("empty Overall != 0")
	}
}

// TestSeriesDropUnbucketableTimes: a time with no int bucket index —
// negative, NaN, infinite or at least 2^63 — is dropped by both series
// instead of panicking on a wrapped index.
func TestSeriesDropUnbucketableTimes(t *testing.T) {
	for _, tc := range []struct {
		name string
		t    float64
	}{
		{"negative", -1},
		{"-inf", math.Inf(-1)},
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"1e300", 1e300},
		{"2^63", 1 << 63},
		{"max-float", math.MaxFloat64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c CountSeries
			c.Add(tc.t, 1)
			var r RMSESeries
			r.Add(tc.t, 1)
			if c.Len() != 0 || c.Total() != 0 {
				t.Errorf("CountSeries recorded time %v: len %d total %v", tc.t, c.Len(), c.Total())
			}
			if r.Len() != 0 || r.Overall() != 0 {
				t.Errorf("RMSESeries recorded time %v: len %d overall %v", tc.t, r.Len(), r.Overall())
			}
		})
	}
}

func TestGroupTally(t *testing.T) {
	g := NewGroupTally()
	g.Add("road", 3)
	g.Add("building", 2)
	g.Add("road", 1)
	if g.Get("road") != 4 {
		t.Errorf("road = %v", g.Get("road"))
	}
	if g.Get("missing") != 0 {
		t.Errorf("missing = %v", g.Get("missing"))
	}
	keys := g.Keys()
	if len(keys) != 2 || keys[0] != "building" || keys[1] != "road" {
		t.Errorf("Keys = %v", keys)
	}
	if g.Total() != 6 {
		t.Errorf("Total = %v", g.Total())
	}
}

func TestGroupTallyRatio(t *testing.T) {
	sent, ideal := NewGroupTally(), NewGroupTally()
	sent.Add("road", 50)
	ideal.Add("road", 100)
	if r := sent.Ratio(sent, ideal, "road"); r != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", r)
	}
	if r := sent.Ratio(sent, ideal, "building"); r != 0 {
		t.Errorf("Ratio with empty denominator = %v, want 0", r)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Fig X", "dth", "lus", "reduction")
	tbl.AddRow("0.75av", "94", "30.5%")
	tbl.AddRow("1.00av", "63", "53.4%")
	out := tbl.String()
	if !strings.Contains(out, "Fig X") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "0.75av") || !strings.Contains(out, "53.4%") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
}

func TestTableRowShapeHandling(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("1")                // short row padded
	tbl.AddRow("1", "2", "extra")  // long row truncated
	tbl.AddRowf("%.1f", 1.25, "x") // mixed formatting
	out := tbl.String()
	if strings.Contains(out, "extra") {
		t.Error("extra cell not dropped")
	}
	if !strings.Contains(out, "1.2") {
		t.Errorf("AddRowf formatting missing:\n%s", out)
	}
}

func TestSummaryQuantiles(t *testing.T) {
	var s Summary
	if s.Quantile(0.5) != 0 || s.Max() != 0 || s.Mean() != 0 || s.N() != 0 {
		t.Fatal("empty summary not zero")
	}
	for i := 100; i >= 1; i-- { // insert descending to exercise selection
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Quantile(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := s.Quantile(0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := s.Max(); got != 100 {
		t.Errorf("max = %v", got)
	}
	if got := s.Mean(); got != 50.5 {
		t.Errorf("mean = %v", got)
	}
	// Adding after a quantile query is seen by the next query.
	s.Add(1000)
	if got := s.Max(); got != 1000 {
		t.Errorf("max after add = %v", got)
	}
	s.Add(math.NaN())
	if s.N() != 101 {
		t.Errorf("NaN counted: N = %d", s.N())
	}
}

func TestSummaryStride(t *testing.T) {
	var s Summary
	s.SetStride(10)
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Fatalf("stride 10 over 1000 offers recorded %d samples, want 100", s.N())
	}
	// Systematic sampling keeps the distribution shape: the subsample
	// is 0, 10, 20, ..., so mean and median sit near the population's.
	if got := s.Mean(); math.Abs(got-495) > 1e-9 {
		t.Errorf("strided mean = %v, want 495", got)
	}
	if got := s.Quantile(0.5); got != 490 {
		t.Errorf("strided p50 = %v, want 490", got)
	}
	// NaNs neither record nor advance the stride phase.
	var n Summary
	n.SetStride(2)
	n.Add(1)
	n.Add(math.NaN())
	n.Add(2)
	n.Add(3)
	if n.N() != 2 {
		t.Errorf("stride with NaN recorded %d samples, want 2", n.N())
	}
	// k <= 1 restores exact recording.
	var e Summary
	e.SetStride(0)
	for i := 0; i < 5; i++ {
		e.Add(1)
	}
	if e.N() != 5 {
		t.Errorf("stride 0 recorded %d samples, want 5", e.N())
	}
}

func TestSummaryQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s Summary
		for _, v := range raw {
			if math.IsInf(v, 0) {
				continue
			}
			s.Add(math.Mod(v, 1e6))
		}
		return s.Quantile(0.25) <= s.Quantile(0.5) &&
			s.Quantile(0.5) <= s.Quantile(0.9) &&
			s.Quantile(0.9) <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCountSeriesGrowthEdges pins the grow routine's three regimes: a
// bucket exactly at the reserved capacity boundary, an overrun past a
// Reserve (doubling growth), and recording at t=0 after a growth so the
// copied prefix is intact.
func TestCountSeriesGrowthEdges(t *testing.T) {
	// Bucket landing exactly on the last reserved slot: no reallocation,
	// in-capacity reslice only.
	var s CountSeries
	s.Reserve(4)
	s.Add(0, 1)
	base := s.Series()
	s.Add(3, 2) // bucket 3 == cap-1
	if got := s.Len(); got != 4 {
		t.Fatalf("Len after filling to cap = %d, want 4", got)
	}
	if got := s.Series(); got[0] != 1 || got[3] != 2 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("Series = %v (prefix was %v)", got, base)
	}

	// Overrunning the reservation: bucket 4 needs a fifth slot, the
	// doubling growth must preserve everything recorded so far.
	s.Add(4, 7)
	if got := s.Series(); len(got) != 5 || got[0] != 1 || got[3] != 2 || got[4] != 7 {
		t.Fatalf("Series after overrun = %v", got)
	}

	// Recording at t=0 after the growth must add into the copied prefix,
	// not a fresh zero.
	s.Add(0, 10)
	if got := s.Series()[0]; got != 11 {
		t.Fatalf("bucket 0 after growth = %v, want 11", got)
	}
	if s.Total() != 20 {
		t.Errorf("Total = %v, want 20", s.Total())
	}

	// The same sequence without Reserve exercises the allocate-from-nil
	// doubling path.
	var u CountSeries
	u.Add(9, 1)
	if u.Len() != 10 || u.Series()[9] != 1 {
		t.Fatalf("cold growth Series = %v", u.Series())
	}
	u.Add(0, 1)
	u.Add(25, 1)
	if got := u.Series(); got[0] != 1 || got[9] != 1 || got[25] != 1 {
		t.Fatalf("Series after second growth = %v", got)
	}
}

// TestCountSeriesReserveKeepsData proves Reserve is purely a capacity
// hint: recorded buckets survive it, and a smaller Reserve is a no-op.
func TestCountSeriesReserveKeepsData(t *testing.T) {
	var s CountSeries
	s.Add(2, 5)
	s.Reserve(100)
	if got := s.Series(); len(got) != 3 || got[2] != 5 {
		t.Fatalf("Series after Reserve = %v", got)
	}
	s.Reserve(1) // shrinking reserve must not truncate
	if got := s.Series(); len(got) != 3 || got[2] != 5 {
		t.Fatalf("Series after shrinking Reserve = %v", got)
	}
}

// TestEmptySeriesRendering pins the empty-input behaviour of every
// series consumer the figure renderers call: no panics, zero values,
// empty (or nil) slices.
func TestEmptySeriesRendering(t *testing.T) {
	var c CountSeries
	if got := c.Series(); len(got) != 0 {
		t.Errorf("empty CountSeries.Series = %v", got)
	}
	if c.Total() != 0 || c.Mean() != 0 || c.Len() != 0 {
		t.Errorf("empty CountSeries totals: %v %v %d", c.Total(), c.Mean(), c.Len())
	}

	var r RMSESeries
	if got := r.Series(); len(got) != 0 {
		t.Errorf("empty RMSESeries.Series = %v", got)
	}
	if r.Overall() != 0 || r.Len() != 0 {
		t.Errorf("empty RMSESeries: overall %v len %d", r.Overall(), r.Len())
	}
	r.Reserve(10)
	if r.Len() != 0 || r.Overall() != 0 {
		t.Errorf("Reserve changed empty RMSESeries: len %d", r.Len())
	}

	if got := Accumulate(nil); len(got) != 0 {
		t.Errorf("Accumulate(nil) = %v", got)
	}
	if got := Downsample(nil, 60); len(got) != 0 {
		t.Errorf("Downsample(nil, 60) = %v", got)
	}
	if got := Downsample([]float64{}, 0); len(got) != 0 {
		t.Errorf("Downsample(empty, 0) = %v", got)
	}
}

// TestRMSESeriesReserveThenOverrun mirrors the CountSeries growth edge
// for the RMSE accumulator: an overrun past the reservation keeps both
// parallel arrays aligned and the earlier sums intact.
func TestRMSESeriesReserveThenOverrun(t *testing.T) {
	var r RMSESeries
	r.Reserve(2)
	r.Add(0, 3)
	r.Add(1.5, 4)
	r.Add(5, 12) // past the reservation
	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6", r.Len())
	}
	got := r.Series()
	if got[0] != 3 || got[1] != 4 || got[5] != 12 {
		t.Fatalf("Series = %v", got)
	}
	r.Add(0, 4) // t=0 after growth: joins bucket 0's mean
	if want := math.Sqrt((9.0 + 16.0) / 2.0); r.Series()[0] != want {
		t.Fatalf("bucket 0 RMSE = %v, want %v", r.Series()[0], want)
	}
}
