package engine

import (
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sim"
)

// newTestSharded builds a one-per-group campus population behind the
// pipeline in the partition workers selects (0 campus, N ≥ 1 region),
// with keyed gateway drops and the keyed churn timeline.
func newTestSharded(t *testing.T, seed int64, dropProb float64, churnProbs [2]float64,
	workers int, newFilter func() (filter.Filter, error)) *Pipeline {
	t.Helper()
	world := campus.New()
	keyed := sim.NewKeyed(seed)
	nodes, err := node.Population(campus.PopulationN(world, 1), world, sim.NewStreams(seed))
	if err != nil {
		t.Fatal(err)
	}
	net, err := gateway.NewNetworkKeyed(world, dropProb, keyed)
	if err != nil {
		t.Fatal(err)
	}
	var churn *KeyedChurn
	if churnProbs[0] > 0 || churnProbs[1] > 0 {
		churn = NewKeyedChurn(churnProbs[0], churnProbs[1], keyed)
	}
	return &Pipeline{
		Nodes:        nodes,
		Net:          net,
		NewFilters:   oneLane(newFilter),
		Lanes:        []Lane{{Broker: broker.New(nil)}},
		Churn:        churn,
		SamplePeriod: 1,
		Workers:      workers,
	}
}

func generalDFFactory() (filter.Filter, error) {
	return filter.NewGeneralDFWithSemantics(2.0, filter.PerStep)
}

func adfFactory() (filter.Filter, error) {
	cfg := core.DefaultConfig()
	cfg.ReclusterInterval = 5
	return core.New(cfg)
}

// TestShardedObserverEvents: the region partition's lane stage must
// emit exactly the event multiset the campus partition emits.
func TestShardedObserverEvents(t *testing.T) {
	obs := &countingObserver{}
	p := newTestSharded(t, 7, 0, [2]float64{}, 2, idealFactory)
	p.Lanes[0].Observer = obs
	if err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	nodes := len(p.Nodes)
	if len(obs.ticks) != 10 {
		t.Errorf("ticks = %d, want 10", len(obs.ticks))
	}
	if obs.offered != nodes*10 || obs.transmitted != nodes*10 {
		t.Errorf("offered/transmitted = %d/%d, want %d/%d",
			obs.offered, obs.transmitted, nodes*10, nodes*10)
	}
	if obs.errs != 2*nodes*10 {
		t.Errorf("errs = %d, want %d", obs.errs, 2*nodes*10)
	}
	if got := p.Lanes[0].Broker.NodeCount(); got != nodes {
		t.Errorf("broker tracks %d nodes, want %d", got, nodes)
	}
}

func TestShardedValidate(t *testing.T) {
	p := newTestSharded(t, 3, 0, [2]float64{}, 1, generalDFFactory)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid region pipeline rejected: %v", err)
	}
	bad := *p
	bad.NewFilters = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil NewFilters accepted")
	}
	bad = *p
	bad.Workers = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
	bad = *p
	bad.Nodes = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty population accepted")
	}
}
