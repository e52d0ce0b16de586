// Package metrics collects the time-series and per-group tallies the
// experiments report: location updates per second, accumulated totals,
// per-region transmission rates and per-second RMSE curves, plus a plain
// text table renderer for the figure output.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// CountSeries counts events into fixed one-second buckets of virtual time.
// The zero value is ready to use.
type CountSeries struct {
	counts []float64
}

func (s *CountSeries) grow(bucket int) {
	if bucket < len(s.counts) {
		return
	}
	// One-step resize straight to the target length instead of one append
	// per missing bucket. Within capacity this is a reslice plus memclr —
	// no allocation, even under the race detector (which would heap-box
	// the temporary of an append(s, make(...)...) extension).
	if bucket < cap(s.counts) {
		old := len(s.counts)
		s.counts = s.counts[:bucket+1]
		clear(s.counts[old:])
		return
	}
	next := 2 * cap(s.counts)
	if next < bucket+1 {
		next = bucket + 1
	}
	// Doubling growth on first touch of a bucket past capacity; absent
	// once Reserve sized the series or the horizon is reached.
	counts := make([]float64, bucket+1, next)
	copy(counts, s.counts)
	s.counts = counts
}

// Reserve pre-allocates capacity for seconds one-second buckets, so a run
// of known horizon records without growth allocations.
func (s *CountSeries) Reserve(seconds int) {
	if seconds > cap(s.counts) {
		counts := make([]float64, len(s.counts), seconds)
		copy(counts, s.counts)
		s.counts = counts
	}
}

// bucketLimit is the first virtual time whose one-second bucket index
// does not fit an int.
const bucketLimit = math.MaxInt + 1

// bucketOf returns the one-second bucket of virtual time t, or false
// when t is negative, NaN or past bucketLimit (an infinite time
// included): such a time has no bucket, and the series drop it.
func bucketOf(t float64) (int, bool) {
	if !(t >= 0 && t < bucketLimit) {
		return 0, false
	}
	return int(t), true
}

// Add records n events at virtual time t; a time bucketOf rejects is
// dropped.
func (s *CountSeries) Add(t float64, n float64) {
	b, ok := bucketOf(t)
	if !ok {
		return
	}
	s.grow(b)
	s.counts[b] += n
}

// Incr records one event at time t.
func (s *CountSeries) Incr(t float64) { s.Add(t, 1) }

// Series returns a copy of the per-second counts.
func (s *CountSeries) Series() []float64 {
	return append([]float64(nil), s.counts...)
}

// Total returns the sum over all buckets.
func (s *CountSeries) Total() float64 {
	var sum float64
	for _, c := range s.counts {
		sum += c
	}
	return sum
}

// Mean returns the mean per-second count over the recorded horizon.
func (s *CountSeries) Mean() float64 {
	if len(s.counts) == 0 {
		return 0
	}
	return s.Total() / float64(len(s.counts))
}

// Len returns the number of one-second buckets recorded.
func (s *CountSeries) Len() int { return len(s.counts) }

// Accumulate converts a per-second series into its running total.
func Accumulate(series []float64) []float64 {
	out := make([]float64, len(series))
	var sum float64
	for i, v := range series {
		sum += v
		out[i] = sum
	}
	return out
}

// Downsample averages a series into ceil(len/width) buckets of the given
// width, for compact figure printouts. A non-positive width returns the
// input unchanged.
func Downsample(series []float64, width int) []float64 {
	if width <= 1 {
		return append([]float64(nil), series...)
	}
	var out []float64
	for i := 0; i < len(series); i += width {
		end := i + width
		if end > len(series) {
			end = len(series)
		}
		var sum float64
		for _, v := range series[i:end] {
			sum += v
		}
		out = append(out, sum/float64(end-i))
	}
	return out
}

// RMSESeries accumulates squared errors into one-second buckets and
// reports the per-second RMSE curve of Figure 7. The zero value is ready
// to use.
type RMSESeries struct {
	sumSq []float64
	n     []int
}

// Reserve pre-allocates capacity for seconds one-second buckets, so a run
// of known horizon records without growth allocations.
func (s *RMSESeries) Reserve(seconds int) {
	if seconds > cap(s.sumSq) {
		sumSq := make([]float64, len(s.sumSq), seconds)
		copy(sumSq, s.sumSq)
		s.sumSq = sumSq
		n := make([]int, len(s.n), seconds)
		copy(n, s.n)
		s.n = n
	}
}

// Add records one scalar error distance at time t; a NaN distance or a
// time bucketOf rejects is dropped.
func (s *RMSESeries) Add(t float64, err float64) {
	b, ok := bucketOf(t)
	if !ok || math.IsNaN(err) {
		return
	}
	for len(s.sumSq) <= b {
		s.sumSq = append(s.sumSq, 0)
		s.n = append(s.n, 0)
	}
	s.sumSq[b] += err * err
	s.n[b]++
}

// Series returns the per-second RMSE values; empty buckets are 0.
func (s *RMSESeries) Series() []float64 {
	out := make([]float64, len(s.sumSq))
	for i := range s.sumSq {
		if s.n[i] > 0 {
			out[i] = math.Sqrt(s.sumSq[i] / float64(s.n[i]))
		}
	}
	return out
}

// Overall returns the RMSE over every sample in every bucket.
func (s *RMSESeries) Overall() float64 {
	var sumSq float64
	var n int
	for i := range s.sumSq {
		sumSq += s.sumSq[i]
		n += s.n[i]
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sumSq / float64(n))
}

// Len returns the number of one-second buckets recorded.
func (s *RMSESeries) Len() int { return len(s.sumSq) }

// GroupTally counts events per string key (e.g. per region or per region
// kind). Counts are stored behind stable pointers so hot paths can resolve
// a key once with Counter and increment without re-hashing. The zero value
// is not ready; construct with NewGroupTally.
type GroupTally struct {
	counts map[string]*float64
}

// NewGroupTally returns an empty tally.
func NewGroupTally() *GroupTally {
	return &GroupTally{counts: make(map[string]*float64)}
}

// Counter returns a pointer to a key's count, inserting a zero entry if
// absent. The pointer stays valid for the tally's lifetime; incrementing
// through it is equivalent to Add.
func (g *GroupTally) Counter(key string) *float64 {
	c, ok := g.counts[key]
	if !ok {
		c = new(float64)
		g.counts[key] = c
	}
	return c
}

// Add adds n to a key's count.
func (g *GroupTally) Add(key string, n float64) { *g.Counter(key) += n }

// Get returns a key's count.
func (g *GroupTally) Get(key string) float64 {
	if c, ok := g.counts[key]; ok {
		return *c
	}
	return 0
}

// Keys returns the keys in sorted order.
func (g *GroupTally) Keys() []string {
	keys := make([]string, 0, len(g.counts))
	for k := range g.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Total returns the sum over all keys.
func (g *GroupTally) Total() float64 {
	var sum float64
	for _, v := range g.counts {
		sum += *v
	}
	return sum
}

// Ratio returns num's count divided by den's count, or 0 when the
// denominator is empty.
func (g *GroupTally) Ratio(num, den *GroupTally, key string) float64 {
	d := den.Get(key)
	if d == 0 {
		return 0
	}
	return num.Get(key) / d
}

// Table renders experiment rows as aligned plain text, the form the
// benchmark harness prints each figure in.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends one row of formatted cells.
func (t *Table) AddRowf(format string, cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf(format, v)
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(parts...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = t.Render(&b)
	return b.String()
}

// Summary collects scalar samples for quantile reporting. Samples are
// recorded exactly by default. Exact zeros, the bulk of a location-error
// series (every delivered LU zeroes the broker's error), are only
// counted, so memory is linear in the non-zero samples. Million-node
// runs set a stride (SetStride) to record a systematic subsample instead
// of exhausting memory. The zero value is ready to use.
//
// Quantile and Quantiles select in place and so reorder the stored
// samples; they are not safe for concurrent use. N, Max and Mean only
// read.
type Summary struct {
	// samples holds the recorded non-zero samples in no particular
	// order; neg of them are negative. zeros counts recorded ±0s.
	samples []float64
	neg     int
	zeros   int
	// sum is the running total of recorded samples, in offer order.
	sum float64
	// stride > 1 records every stride-th offered sample; skip counts
	// down to the next recorded one.
	stride int
	skip   int
}

// Quantiles is a summary's published tail: the nearest-rank P50, P90
// and P99 and the maximum.
type Quantiles struct {
	P50, P90, P99, Max float64
}

// Reserve pre-allocates capacity for n samples, so a run with a known
// sample budget records without growth allocations.
func (s *Summary) Reserve(n int) {
	if n > cap(s.samples) {
		samples := make([]float64, len(s.samples), n)
		copy(samples, s.samples)
		s.samples = samples
	}
}

// SetStride makes the summary record every k-th offered sample
// (systematic sampling): quantiles and mean become estimates over an
// evenly spaced subsample rather than the exact population — a
// resolution trade the million-node scales accept to keep a run's
// error-series memory bounded. k <= 1 restores exact recording.
func (s *Summary) SetStride(k int) {
	if k <= 1 {
		k = 1
	}
	s.stride = k
	s.skip = 0
}

// Add records one sample; NaNs are ignored, and with a stride set only
// every stride-th offer lands.
func (s *Summary) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.stride > 1 {
		if s.skip > 0 {
			s.skip--
			return
		}
		s.skip = s.stride - 1
	}
	s.sum += v
	switch {
	case v == 0:
		s.zeros++
		return
	case v < 0:
		s.neg++
	}
	s.samples = append(s.samples, v)
}

// N returns the number of samples recorded.
func (s *Summary) N() int { return len(s.samples) + s.zeros }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank over the
// recorded samples, or 0 when empty. The ranks below the counted zeros
// are the negative samples and the ranks above them the positive ones,
// so a rank outside the zeros is selected among the stored samples.
func (s *Summary) Quantile(q float64) float64 {
	if s.N() == 0 || math.IsNaN(q) {
		return 0
	}
	if q >= 1 {
		return s.Max()
	}
	v, _ := s.at(s.rank(q), 0)
	return v
}

// Quantiles returns the summary's P50, P90, P99 and maximum. The ranks
// ascend, so each selection searches only the stored samples the
// previous one left above its rank.
func (s *Summary) Quantiles() Quantiles {
	if s.N() == 0 {
		return Quantiles{}
	}
	var q Quantiles
	from := 0
	q.P50, from = s.at(s.rank(0.5), from)
	q.P90, from = s.at(s.rank(0.9), from)
	q.P99, _ = s.at(s.rank(0.99), from)
	q.Max = s.Max()
	return q
}

// rank returns the nearest-rank index of the q-quantile (q < 1) of a
// non-empty summary.
func (s *Summary) rank(q float64) int {
	if q <= 0 {
		return 0
	}
	return max(int(math.Ceil(q*float64(s.N())))-1, 0)
}

// at returns the recorded sample of rank idx, selecting among the stored
// samples from index from on, and the stored index a higher rank can
// search from next. No stored sample before from may exceed one after
// it, which every earlier selection leaves true.
func (s *Summary) at(idx, from int) (float64, int) {
	k := idx - s.zeros
	switch {
	case idx < s.neg:
		k = idx
	case idx < s.neg+s.zeros:
		return 0, from
	}
	return selectKth(s.samples[from:], k-from), k
}

// Max returns the largest sample, or 0 when empty.
func (s *Summary) Max() float64 {
	if s.N() == 0 {
		return 0
	}
	m := math.Inf(-1)
	if s.zeros > 0 {
		m = 0
	}
	for _, v := range s.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Summary) Mean() float64 {
	if s.N() == 0 {
		return 0
	}
	return s.sum / float64(s.N())
}

// selectKth returns the k-th smallest element of a (0-based) by
// quickselect with a three-way partition, so a run of equal values is
// settled in one pass. It reorders a in place. a must hold no NaN.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		p := medianOf3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// Partition a[lo:hi] into [lo,lt) < p, [lt,gt) equal to p and
		// [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case p < v:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	return a[k]
}

// medianOf3 returns the median of three values.
func medianOf3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
		if b < a {
			b = a
		}
	}
	return b
}
