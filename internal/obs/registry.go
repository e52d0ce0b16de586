package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. Recording is gated on the
// global enable flag; reads always see the accumulated value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one when observability is enabled.
func (c *Counter) Inc() {
	if on.Load() {
		c.v.Add(1)
	}
}

// Add adds n when observability is enabled.
func (c *Counter) Add(n uint64) {
	if on.Load() {
		c.v.Add(n)
	}
}

// add adds unconditionally; the per-tick flush gates once for the whole
// batch instead of per instrument.
func (c *Counter) add(n uint64) { c.v.Add(n) }

// Value returns the accumulated count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that goes up and down. Unlike counters and
// histograms, gauges are NOT gated on the enable flag: they mirror live
// state transitions (connected federates, live clusters, per-pattern
// node counts) that happen regardless of whether anyone is recording,
// and skipping a transition while disabled would leave the gauge wrong
// forever after enabling. All update sites are rare (joins, resigns,
// cluster births, pattern changes), so the unconditional atomic is free.
type Gauge struct {
	v atomic.Int64
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets with ascending upper
// bounds (Prometheus le semantics: an observation lands in the first
// bucket whose bound is >= the value; one overflow bucket catches the
// rest). Bounds are fixed at registration so recording never allocates.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	n      atomic.Uint64
}

// Observe records one value when observability is enabled.
func (h *Histogram) Observe(v float64) {
	if on.Load() {
		h.observe(v)
	}
}

// observe records unconditionally (used by the gated batch flush).
func (h *Histogram) observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// bucket returns the index of the bucket v falls into.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Quantile estimates the q-quantile (q in [0,1]) from the bucketed
// counts: the rank is located in its bucket and linearly interpolated
// across that bucket's bound span, with the lowest bucket interpolated
// from zero. Ranks landing in the overflow bucket clamp to the largest
// finite bound (the histogram records nothing beyond it). Returns NaN
// for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*((rank-float64(prev))/float64(c))
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// atomicFloat is a float64 accumulated with compare-and-swap, so
// concurrent flushes from parallel campaign workers never lose updates.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// kind discriminates instrument families.
type kind int

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// series is one labeled instrument within a family.
type series struct {
	labels string // rendered label pairs, `` or `k="v",k2="v2"`
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with all its label combinations.
type family struct {
	name     string
	kind     kind
	bounds   []float64 // histogram families only
	series   []*series
	byLabels map[string]*series
}

// Registry holds instrument families and renders them as Prometheus
// text or a JSON snapshot. Get-or-create lookups are mutex-guarded (all
// callers are cold paths: instruments are resolved once and cached);
// the returned instruments themselves are lock-free.
type Registry struct {
	mu sync.Mutex

	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Default is the process-wide registry every built-in instrument
// registers with and the HTTP endpoint serves.
var Default = NewRegistry()

// renderLabels formats k,v pairs as `k="v",k2="v2"`. Pairs must come in
// even count; values are used verbatim (callers pass literals).
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	return b.String()
}

// lookup returns the family/series pair, creating either as needed.
func (r *Registry) lookup(name string, k kind, bounds []float64, labels []string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, kind: k, bounds: bounds, byLabels: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.kind, k))
	}
	ls := renderLabels(labels)
	s, ok := f.byLabels[ls]
	if !ok {
		s = &series{labels: ls}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
		default:
			panic(fmt.Sprintf("obs: unknown instrument kind %d", int(k)))
		}
		f.byLabels[ls] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter returns (registering on first use) the named counter with the
// given label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, kindCounter, nil, labels).c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, kindGauge, nil, labels).g
}

// Histogram returns (registering on first use) the named histogram. The
// bounds of the first registration win for the whole family, so every
// label combination shares one bucket layout.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return r.lookup(name, kindHistogram, bounds, labels).h
}

// snapshotFamilies copies the family list under the lock; the
// instruments themselves are read atomically afterwards.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}

// formatValue renders a float with full precision but without the
// scientific noise of %v on integral values.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format. Families render in name order, series in
// label order, so scrapes are stable; pre-registered instruments render
// with zero values before the first event.
func (r *Registry) WritePrometheus(w io.Writer) error {
	families := r.snapshotFamilies()
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		ordered := append([]*series(nil), f.series...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].labels < ordered[j].labels })
		for _, s := range ordered {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(s.labels), s.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(s.labels), s.g.Value())
			case kindHistogram:
				var cum uint64
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLE(s.labels, formatValue(bound)), cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(s.labels), formatValue(s.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(s.labels), s.h.Count())
			default:
				// Unreachable: lookup rejects unknown kinds at registration.
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// braced wraps rendered labels in curly braces, or returns "" for the
// unlabeled series.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// withLE appends the le label to an existing label set.
func withLE(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("{%s,le=%q}", labels, le)
}

// HistogramSnapshot is one histogram series in a registry Snapshot.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a JSON-friendly dump of a registry, keyed by
// `name{labels}` strings.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, f := range r.snapshotFamilies() {
		for _, s := range f.series {
			key := f.name + braced(s.labels)
			switch f.kind {
			case kindCounter:
				snap.Counters[key] = s.c.Value()
			case kindGauge:
				snap.Gauges[key] = s.g.Value()
			case kindHistogram:
				hs := HistogramSnapshot{
					Bounds: append([]float64(nil), s.h.bounds...),
					Counts: make([]uint64, len(s.h.counts)),
					Sum:    s.h.Sum(),
					Count:  s.h.Count(),
				}
				for i := range s.h.counts {
					hs.Counts[i] = s.h.counts[i].Load()
				}
				snap.Histograms[key] = hs
			default:
				// Unreachable: lookup rejects unknown kinds at registration.
			}
		}
	}
	return snap
}
