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

// checkTick verifies one tick's invariants right after the advance
// stage filled the sample buffer: the virtual clock only moves forward,
// and every node's sampled position is finite and inside the union of
// the campus region bounds (the mobility models bounce or clamp inside
// their region, so any escape is a model bug, not a modelling choice).
func (st *sanitizerState) checkTick(nodes []*node.Node, samples []Sample, now float64) {
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

	for i := range samples {
		s := &samples[i]
		//adf:invariant finite-position — a NaN/Inf coordinate silently corrupts every downstream RMSE and traffic figure.
		sanitize.CheckPoint("engine: node position", s.Pos)
		//adf:invariant campus-bounds — positions stay inside the union of the campus region bounds.
		sanitize.CheckInBounds("engine: node position", s.Pos, st.bounds)
		//adf:invariant finite-position — sample timestamps feed the estimators and must be finite.
		sanitize.CheckFinite("engine: sample time", s.Time)
	}
}

// sanitizeTick checks the pipeline's tick invariants.
func (p *Pipeline) sanitizeTick(now float64) {
	p.san.checkTick(p.Nodes, p.samples, now)
}
