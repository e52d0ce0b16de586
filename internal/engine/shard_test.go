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

// sizedFilter is an ideal filter that records how build pre-sized it.
type sizedFilter struct {
	*filter.IdealLU
	span, members int
	calls         int
}

func (f *sizedFilter) PreallocateMembers(span, members int) {
	f.span, f.members = span, members
	f.calls++
	f.IdealLU.PreallocateMembers(span, members)
}

// TestShardFilterWindows: build pre-sizes every shard's filters once, by
// that shard alone — a region shard's ID windows end at its highest
// member ID + 1 and its member count is its own, while the campus
// shard's cover the population.
func TestShardFilterWindows(t *testing.T) {
	newSized := func() (filter.Filter, error) { return &sizedFilter{IdealLU: filter.NewIdealLU()}, nil }
	for _, workers := range []int{0, 1} {
		p := newTestSharded(t, 3, 0, [2]float64{}, workers, newSized)
		if err := p.Tick(1); err != nil {
			t.Fatal(err)
		}
		p.Close()
		want := map[string][2]int{}
		for _, n := range p.Nodes {
			key := string(n.Region().ID)
			if workers == 0 {
				key = "campus"
			}
			w := want[key]
			want[key] = [2]int{max(w[0], n.ID()+1), w[1] + 1}
		}
		if len(p.shards) != len(want) {
			t.Fatalf("workers %d: %d shards, want %d", workers, len(p.shards), len(want))
		}
		narrower := false
		for _, sh := range p.shards {
			f := sh.lanes[0].filt.(*sizedFilter)
			w := want[sh.name]
			if f.calls != 1 || f.span != w[0] || f.members != w[1] {
				t.Errorf("workers %d, shard %s: pre-sized %d times to span %d, members %d; want once to span %d, members %d",
					workers, sh.name, f.calls, f.span, f.members, w[0], w[1])
			}
			narrower = narrower || f.span < len(p.Nodes)
		}
		if workers > 0 && !narrower {
			t.Errorf("every region shard's window spans the whole population")
		}
	}
}
