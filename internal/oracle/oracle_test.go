package oracle

import (
	"errors"
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sim"
)

// newPipeline builds a campus-partition ADF pipeline over a one-per-group
// population whose broker runs the gap-aware Location Estimator.
func newPipeline(t *testing.T) *engine.Pipeline {
	t.Helper()
	world := campus.New()
	nodes, err := node.Population(campus.PopulationN(world, 1), world, sim.NewStreams(3))
	if err != nil {
		t.Fatal(err)
	}
	net, err := gateway.NewNetworkKeyed(world, 0.1, sim.NewKeyed(3))
	if err != nil {
		t.Fatal(err)
	}
	le := func() estimate.PositionEstimator {
		e, err := estimate.NewGapAwareLE(estimate.DefaultGapAwareConfig())
		if err != nil {
			panic(err)
		}
		return e
	}
	return &engine.Pipeline{
		Nodes: nodes,
		Net:   net,
		NewFilters: func() ([]filter.Filter, error) {
			f, err := core.New(core.DefaultConfig())
			return []filter.Filter{f}, err
		},
		Lanes:        []engine.Lane{{Broker: broker.New(le)}},
		SamplePeriod: 1,
	}
}

// run ticks p through rounds 1..n, holding each to Check.
func run(t *testing.T, p *engine.Pipeline, n int) {
	t.Helper()
	for k := 1; k <= n; k++ {
		if err := p.Tick(float64(k)); err != nil {
			t.Fatal(err)
		}
		if err := Check(p); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}
}

// TestCheckHoldsOnHealthyRun: nothing fires on a healthy ADF run, and
// the run gets far enough to cluster nodes.
func TestCheckHoldsOnHealthyRun(t *testing.T) {
	p := newPipeline(t)
	run(t, p, 40)
	if p.ShardFilters()[0][0].(*core.ADF).ClusterCount() == 0 {
		t.Fatal("the ADF formed no clusters; the cluster clauses were never exercised")
	}
}

// TestCheckCatchesNonFiniteBelief stores a non-finite belief in the
// lane's broker and expects a finite-estimate violation naming it.
func TestCheckCatchesNonFiniteBelief(t *testing.T) {
	for _, tc := range []struct {
		name string
		pos  geo.Point
		time float64
	}{
		{"nan-position", geo.Point{X: math.NaN(), Y: 1}, 21},
		{"inf-time", geo.Point{X: 1, Y: 1}, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPipeline(t)
			run(t, p, 20)
			id := p.Nodes[3].ID()
			p.Lanes[0].Broker.ReceiveLU(id, tc.time, tc.pos)
			err := Check(p)
			var v *Violation
			if !errors.As(err, &v) || v.Invariant != "finite-estimate" {
				t.Fatalf("Check = %v, want a finite-estimate violation", err)
			}
		})
	}
}

// TestCheckPosition: a node's position fails finite-position when a
// coordinate is not finite and campus-bounds when it leaves the bounds.
func TestCheckPosition(t *testing.T) {
	bounds := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 100, Y: 50}}
	for _, tc := range []struct {
		name string
		pos  geo.Point
		want string
	}{
		{"inside", geo.Point{X: 40, Y: 20}, ""},
		{"corner", geo.Point{X: 100, Y: 50}, ""},
		{"nan-x", geo.Point{X: math.NaN(), Y: 20}, "finite-position"},
		{"inf-y", geo.Point{X: 40, Y: math.Inf(-1)}, "finite-position"},
		{"past-max-x", geo.Point{X: 100.5, Y: 20}, "campus-bounds"},
		{"below-min-y", geo.Point{X: 40, Y: -1}, "campus-bounds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertClause(t, checkPosition(7, tc.pos, bounds), tc.want)
		})
	}
}

// TestCheckCluster: a cluster fails finite-estimate when its mean speed
// is not finite and dth-floor when its DTH is below the floor or not
// finite.
func TestCheckCluster(t *testing.T) {
	const floor = 0.25
	for _, tc := range []struct {
		name      string
		mean, dth float64
		want      string
	}{
		{"above-floor", 1.2, 1.2, ""},
		{"at-floor", 0.1, floor, ""},
		{"nan-mean", math.NaN(), floor, "finite-estimate"},
		{"inf-mean", math.Inf(1), math.Inf(1), "finite-estimate"},
		{"below-floor", 0.1, 0.1, "dth-floor"},
		{"nan-dth", 1, math.NaN(), "dth-floor"},
		{"inf-dth", 1, math.Inf(1), "dth-floor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := core.ClusterStats{ID: 3, Size: 2, MeanSpeed: tc.mean, DTH: tc.dth}
			assertClause(t, checkCluster(0, 1, c, floor), tc.want)
		})
	}
}

// assertClause fails unless v names invariant, or is nil when invariant
// is empty.
func assertClause(t *testing.T, v *Violation, invariant string) {
	t.Helper()
	switch {
	case invariant == "" && v != nil:
		t.Fatalf("got %v, want no violation", v)
	case invariant != "" && (v == nil || v.Invariant != invariant):
		t.Fatalf("got %v, want a %s violation", v, invariant)
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{Invariant: "campus-bounds", Detail: "node 7 at (1, 2)"}
	if got, want := v.Error(), "oracle: campus-bounds: node 7 at (1, 2)"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
