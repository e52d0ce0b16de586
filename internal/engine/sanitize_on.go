//go:build adfcheck

package engine

import (
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sanitize"
)

// sanitizerState is the per-pipeline bookkeeping the adfcheck build
// threads through the tick loop: the campus bounding box every position
// must stay inside, and the previous tick time for the monotone-clock
// invariant.
type sanitizerState struct {
	bounds    geo.Rect
	hasBounds bool
	lastTick  float64
	ticked    bool
}

// checkClock runs once per tick, before the job list: the virtual
// clock only moves forward. The first call also resolves the union of
// the campus region bounds that checkSample holds positions to.
func (st *sanitizerState) checkClock(nodes []*node.Node, now float64) {
	if !st.hasBounds {
		bounds := nodes[0].Region().Bounds
		for _, n := range nodes[1:] {
			bounds = bounds.Union(n.Region().Bounds)
		}
		st.bounds, st.hasBounds = bounds, true
	}
	prev := now
	if st.ticked {
		prev = st.lastTick
	}
	//adf:invariant monotone-clock — sampling rounds may only move forward in virtual time.
	sanitize.CheckMonotone("engine: tick clock", prev, now)
	st.lastTick, st.ticked = now, true
}

// checkSample verifies one freshly advanced sample inside its shard
// job, before any filter sees it: the position is finite and inside the
// campus bounds (the mobility models bounce or clamp inside their
// region, so any escape is a model bug, not a modelling choice), and
// the time is finite. It only reads the state checkClock wrote, so
// shards may call it concurrently.
func (st *sanitizerState) checkSample(s *Sample) {
	//adf:invariant finite-position — a NaN/Inf coordinate silently corrupts every downstream RMSE and traffic figure.
	sanitize.CheckPoint("engine: node position", s.Pos)
	//adf:invariant campus-bounds — positions stay inside the union of the campus region bounds.
	sanitize.CheckInBounds("engine: node position", s.Pos, st.bounds)
	//adf:invariant finite-position — sample timestamps feed the estimators and must be finite.
	sanitize.CheckFinite("engine: sample time", s.Time)
}
