// Package oracle is the run oracle: one check that a pipeline's
// simulation state is sound, read from what the engine already exposes.
// The paper's traffic and RMSE figures are only as sound as that state,
// so tests hold the campus- and region-partition runs, the worker-count
// digest gates, the campaign pins and FuzzRun to it after every tick.
//
// Check's clauses, each named by the Violation it returns:
//
//   - finite-position: every node's true position is finite;
//   - campus-bounds: every node lies inside the union of the home
//     regions' bounds (the mobility models bounce or clamp inside their
//     region, so an escape is a model bug);
//   - finite-estimate: every lane broker's believed position and belief
//     time are finite, and so is every ADF cluster's mean speed;
//   - dth-floor: every ADF cluster's distance threshold is finite and at
//     least the filter's MinDTH;
//   - cluster-stats: every ADF cluster's running sums match a recompute
//     from its members (cluster.Manager.CheckSums).
//
// The sixth invariant, monotone-clock, is input validation:
// engine.Pipeline.Tick rejects a time that is not finite or is earlier
// than the previous tick's with engine.ErrClock.
package oracle

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/geo"
)

// Violation is a failed clause of the oracle.
type Violation struct {
	// Invariant names the clause: finite-position, campus-bounds,
	// finite-estimate, dth-floor or cluster-stats.
	Invariant string
	// Detail says which state broke it.
	Detail string
}

func (v *Violation) Error() string { return "oracle: " + v.Invariant + ": " + v.Detail }

func violation(invariant, format string, args ...any) *Violation {
	return &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// Check returns the first clause p's state violates, or nil. Call it
// between ticks, after Settle on a concurrent pipeline: Check reads the
// lanes' brokers, which trailing lane stages keep writing after Tick
// returns.
func Check(p *engine.Pipeline) error {
	if len(p.Nodes) == 0 {
		return nil
	}
	bounds := p.Nodes[0].Region().Bounds
	for _, n := range p.Nodes[1:] {
		bounds = bounds.Union(n.Region().Bounds)
	}
	for _, n := range p.Nodes {
		if v := checkPosition(n.ID(), n.Pos(), bounds); v != nil {
			return v
		}
	}
	for l, ln := range p.Lanes {
		for _, n := range p.Nodes {
			e, ok := ln.Broker.Location(n.ID())
			if ok && !(finitePoint(e.Pos) && finite(e.Time)) {
				return violation("finite-estimate", "lane %d believes node %d at %v (time %v)", l, e.Node, e.Pos, e.Time)
			}
		}
	}
	for s, filts := range p.ShardFilters() {
		for l, f := range filts {
			adf, ok := f.(*core.ADF)
			if !ok {
				continue
			}
			floor := adf.Config().MinDTH
			for _, c := range adf.Clusters() {
				if v := checkCluster(s, l, c, floor); v != nil {
					return v
				}
			}
			if err := adf.Clustering().CheckSums(); err != nil {
				return violation("cluster-stats", "shard %d lane %d: %v", s, l, err)
			}
		}
	}
	return nil
}

// checkPosition holds node id's true position pos to finite-position
// and campus-bounds.
func checkPosition(id int, pos geo.Point, bounds geo.Rect) *Violation {
	if !finitePoint(pos) {
		return violation("finite-position", "node %d at %v", id, pos)
	}
	if !bounds.Contains(pos) {
		return violation("campus-bounds", "node %d at %v outside [%v, %v]", id, pos, bounds.Min, bounds.Max)
	}
	return nil
}

// checkCluster holds an ADF cluster of shard s, lane l to
// finite-estimate (its mean speed) and dth-floor (its DTH against the
// filter's MinDTH floor).
func checkCluster(s, l int, c core.ClusterStats, floor float64) *Violation {
	if !finite(c.MeanSpeed) {
		return violation("finite-estimate", "shard %d lane %d cluster %d mean speed %v", s, l, c.ID, c.MeanSpeed)
	}
	if !(finite(c.DTH) && c.DTH >= floor) {
		return violation("dth-floor", "shard %d lane %d cluster %d DTH %v, floor %v", s, l, c.ID, c.DTH, floor)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finitePoint(p geo.Point) bool { return finite(p.X) && finite(p.Y) }
