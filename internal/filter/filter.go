// Package filter defines the location-update filtering contract and the
// paper's two baselines: the ideal (unfiltered) location update stream and
// the general Distance Filter with one global distance threshold (DTH).
// The Adaptive Distance Filter itself lives in internal/core because it
// composes the classifier and the cluster manager on top of this contract.
package filter

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/dense"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/obs"
)

// LU is a location update offered to a filter: one node's sampled position
// at one instant of virtual time.
type LU struct {
	Node int
	Time float64
	Pos  geo.Point
}

// Decision is a filter's verdict on one LU.
type Decision struct {
	// Transmit is true when the LU must be forwarded to the grid broker.
	Transmit bool
	// Distance is the node's displacement from the filter's anchor (0
	// for a node's first LU): its last transmitted location under
	// Anchored, its previous sample under PerStep.
	Distance float64
	// Threshold is the DTH the LU was compared against (0 when the filter
	// does not use one).
	Threshold float64
}

// Filter decides which location updates reach the grid broker.
// Implementations are not safe for concurrent use; the simulation engine
// is single-threaded.
type Filter interface {
	// Name identifies the filter in experiment output.
	Name() string
	// Offer presents one LU; the decision says whether it is transmitted.
	// Offers for one node must have non-decreasing timestamps.
	Offer(lu LU) Decision
	// Forget drops all per-node state (a node left the grid).
	Forget(node int)
}

// Preallocator is implemented by filters whose per-node state can be
// sized up front. The engine pipeline is its one caller: at build, once
// a shard's members are placed, it sizes each of the shard's filters by
// that shard alone. Pre-sizing replaces the first-touch growth walk of
// the dense stores with a single allocation — at a million nodes that
// is the difference between a quiet warmup and a gigabyte of doubling
// copies — and sizing by the shard keeps a region shard's windows to
// its own IDs instead of the whole population's.
type Preallocator interface {
	// PreallocateMembers reserves state for members distinct nodes with
	// IDs in [0, span): ID-keyed windows cover [0, span), and stores
	// packed by first offer hold members entries.
	PreallocateMembers(span, members int)
}

// Observe mirrors one filter verdict into a pipeline's observability
// batch: the transmit/suppress tallies are plain adds recorded
// unconditionally, while the distance and threshold histograms — which
// cost a bucket scan per LU — record only when hist is set (the engine
// passes its per-tick cached enable flag). The verdict-to-tally mapping
// lives here, next to the Decision type, so every Filter implementation
// is accounted identically.
func Observe(d Decision, t *obs.TickLocal, hist bool) {
	if d.Transmit {
		t.Sent++
	} else {
		t.Filtered++
	}
	if hist {
		t.Distance.Observe(d.Distance)
		t.DTH.Observe(d.Threshold)
	}
}

// IdealLU is the unfiltered baseline: every offered LU is transmitted.
// The paper calls the resulting stream "the ideal LU".
type IdealLU struct {
	lastSent dense.Map[geo.Point]
}

var _ Filter = (*IdealLU)(nil)

// NewIdealLU returns the pass-through baseline filter.
func NewIdealLU() *IdealLU {
	return &IdealLU{}
}

// Name implements Filter.
func (f *IdealLU) Name() string { return "ideal" }

// Offer implements Filter.
func (f *IdealLU) Offer(lu LU) Decision {
	var dist float64
	if prev, ok := f.lastSent.Get(lu.Node); ok {
		dist = lu.Pos.Dist(prev)
	}
	f.lastSent.Put(lu.Node, lu.Pos)
	return Decision{Transmit: true, Distance: dist}
}

// Forget implements Filter.
func (f *IdealLU) Forget(node int) { f.lastSent.Delete(node) }

// PreallocateMembers implements Preallocator: the window is ID-keyed.
func (f *IdealLU) PreallocateMembers(span, _ int) { f.lastSent.Grow(span) }

// Semantics selects what "the MN's moving distance" is compared against
// the DTH.
//
// The paper (section 3.2.2) filters an LU when "the MN's moving distance
// is shorter than the DTH". Interpreted per sampling period — the distance
// moved since the previous location acquisition — slow nodes are filtered
// indefinitely and the broker's belief goes stale until the Location
// Estimator repairs it; this reproduces the paper's reported reduction
// spread (≈30→77% across 0.75av→1.25av) and the large RMSE scale of
// Figure 7. The classic distance-filter alternative anchors at the last
// *transmitted* location, which bounds the error by the DTH but reduces
// traffic far less. Both are implemented; the experiments default to
// PerStep and ablate the difference.
type Semantics int

const (
	// Anchored compares displacement from the last transmitted location.
	Anchored Semantics = iota + 1
	// PerStep compares the distance moved since the previous sample.
	PerStep
)

// String implements fmt.Stringer.
func (s Semantics) String() string {
	switch s {
	case Anchored:
		return "anchored"
	case PerStep:
		return "per-step"
	default:
		return "unknown"
	}
}

// Validate reports whether s is a known semantics value.
func (s Semantics) Validate() error {
	if s != Anchored && s != PerStep {
		return fmt.Errorf("filter: unknown semantics %d", int(s))
	}
	return nil
}

// GeneralDF is the paper's general Distance Filter: a single predefined
// DTH applied to every node. A node's first LU always passes.
type GeneralDF struct {
	dth       float64
	semantics Semantics
	// anchor is the reference point per node: the last transmitted
	// location (Anchored) or the previous sample (PerStep).
	anchor dense.Map[geo.Point]
}

var _ Filter = (*GeneralDF)(nil)

// NewGeneralDF returns an anchored general distance filter with the given
// DTH in metres. DTH must be positive.
func NewGeneralDF(dth float64) (*GeneralDF, error) {
	return NewGeneralDFWithSemantics(dth, Anchored)
}

// NewGeneralDFWithSemantics returns a general distance filter with the
// given DTH and comparison semantics.
func NewGeneralDFWithSemantics(dth float64, semantics Semantics) (*GeneralDF, error) {
	if dth <= 0 {
		return nil, fmt.Errorf("filter: DTH must be positive, got %v", dth)
	}
	if err := semantics.Validate(); err != nil {
		return nil, err
	}
	return &GeneralDF{dth: dth, semantics: semantics}, nil
}

// Name implements Filter.
func (f *GeneralDF) Name() string { return "general-df" }

// DTH returns the filter's distance threshold.
func (f *GeneralDF) DTH() float64 { return f.dth }

// Semantics returns the filter's comparison semantics.
func (f *GeneralDF) Semantics() Semantics { return f.semantics }

// Offer implements Filter.
func (f *GeneralDF) Offer(lu LU) Decision {
	prev, seen := f.anchor.Get(lu.Node)
	if !seen {
		f.anchor.Put(lu.Node, lu.Pos)
		return Decision{Transmit: true, Threshold: f.dth}
	}
	dist := lu.Pos.Dist(prev)
	transmit := dist >= f.dth
	if transmit || f.semantics == PerStep {
		f.anchor.Put(lu.Node, lu.Pos)
	}
	return Decision{Transmit: transmit, Distance: dist, Threshold: f.dth}
}

// Forget implements Filter.
func (f *GeneralDF) Forget(node int) { f.anchor.Delete(node) }

// PreallocateMembers implements Preallocator: the window is ID-keyed.
func (f *GeneralDF) PreallocateMembers(span, _ int) { f.anchor.Grow(span) }
