package engine

import (
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sanitize"
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
		Lanes:        []Lane{{NoLE: broker.New(nil), WithLE: broker.New(nil)}},
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

// worldDigest folds the state both partitions share — node positions,
// broker DBs and counters, churn population — so campus and region runs
// can be compared even though their full StateDigests differ (those
// also fold shard membership).
func worldDigest(nodes []*node.Node, noLE, withLE *broker.Broker, churn *KeyedChurn) uint64 {
	d := sanitize.NewDigest()
	for _, n := range nodes {
		d.WriteInt(n.ID())
		pos := n.Pos()
		d.WriteFloat64(pos.X)
		d.WriteFloat64(pos.Y)
	}
	noLE.DigestState(&d)
	withLE.DigestState(&d)
	if churn != nil {
		d.WriteInt(churn.AbsentCount())
	}
	return d.Sum()
}

// TestShardedMatchesClassicState: for a per-node filter the region
// partition must be bit-identical to the campus partition — same node
// positions, same broker beliefs, same counters — tick for tick. Drops
// and churn are on so every stage participates.
func TestShardedMatchesClassicState(t *testing.T) {
	const ticks = 60
	churnProbs := [2]float64{0.02, 0.3}
	campusP := newTestSharded(t, 11, 0.3, churnProbs, 0, generalDFFactory)
	region := newTestSharded(t, 11, 0.3, churnProbs, 1, generalDFFactory)
	defer region.Close()

	for tick := 1; tick <= ticks; tick++ {
		now := float64(tick)
		if err := campusP.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := region.Tick(now); err != nil {
			t.Fatal(err)
		}
		cd := worldDigest(campusP.Nodes, campusP.Lanes[0].NoLE, campusP.Lanes[0].WithLE, campusP.Churn)
		rd := worldDigest(region.Nodes, region.Lanes[0].NoLE, region.Lanes[0].WithLE, region.Churn)
		if cd != rd {
			t.Fatalf("tick %d: campus digest %x != region digest %x", tick, cd, rd)
		}
	}
	if len(campusP.ShardFilters()) != 1 || len(region.ShardFilters()) < 2 {
		t.Errorf("shard counts campus %d, region %d; want 1 and one per region",
			len(campusP.ShardFilters()), len(region.ShardFilters()))
	}
	if got, want := region.Lanes[0].NoLE.ReceivedLUs(), campusP.Lanes[0].NoLE.ReceivedLUs(); got != want {
		t.Errorf("ReceivedLUs = %d, want %d", got, want)
	}
	if got, want := region.Lanes[0].WithLE.EstimatedLUs(), campusP.Lanes[0].WithLE.EstimatedLUs(); got != want {
		t.Errorf("EstimatedLUs = %d, want %d", got, want)
	}
}

// TestShardedWorkerDeterminism: the region partition's full StateDigest
// — including every shard's ADF clustering — must agree at every worker
// count, tick for tick. This is the core merge-order contract. The
// gateways run Gilbert–Elliott outage chains here, so each shard also
// steps its own regions' chains.
func TestShardedWorkerDeterminism(t *testing.T) {
	const ticks = 60
	burst := gateway.BurstConfig{PEnterOutage: 0.05, PExitOutage: 0.2, DropUp: 0.02, DropDown: 1}
	workerCounts := []int{1, 2, 4, 8}
	var ref []uint64
	for _, w := range workerCounts {
		p := newTestSharded(t, 23, 0, [2]float64{0.01, 0.2}, w, adfFactory)
		net, err := gateway.NewBurstNetworkKeyed(campus.New(), burst, sim.NewKeyed(23))
		if err != nil {
			t.Fatal(err)
		}
		p.Net = net
		digests := make([]uint64, 0, ticks)
		for tick := 1; tick <= ticks; tick++ {
			if err := p.Tick(float64(tick)); err != nil {
				t.Fatal(err)
			}
			digests = append(digests, p.StateDigest())
		}
		p.Close()
		if ref == nil {
			ref = digests
			if len(p.ShardFilters()) == 0 {
				t.Fatal("no shards built")
			}
			continue
		}
		for i := range ref {
			if digests[i] != ref[i] {
				t.Fatalf("workers=%d: tick %d digest %x != workers=%d digest %x",
					w, i+1, digests[i], workerCounts[0], ref[i])
			}
		}
	}
}

// TestShardedKeyedMatchesClassicState: on the shard worker pool the
// region partition must still match the campus partition bit for bit,
// even though the churn timeline is split per region shard in one and
// kept whole in the other — keyed draws depend only on the node, never
// on the partition or processing order.
func TestShardedKeyedMatchesClassicState(t *testing.T) {
	const (
		ticks = 60
		seed  = 11
		drop  = 0.3
	)
	churnProbs := [2]float64{0.02, 0.3}
	campusP := newTestSharded(t, seed, drop, churnProbs, 0, generalDFFactory)
	region := newTestSharded(t, seed, drop, churnProbs, 2, generalDFFactory)
	defer region.Close()

	for tick := 1; tick <= ticks; tick++ {
		now := float64(tick)
		if err := campusP.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := region.Tick(now); err != nil {
			t.Fatal(err)
		}
		cd := worldDigest(campusP.Nodes, campusP.Lanes[0].NoLE, campusP.Lanes[0].WithLE, campusP.Churn)
		rd := worldDigest(region.Nodes, region.Lanes[0].NoLE, region.Lanes[0].WithLE, region.Churn)
		if cd != rd {
			t.Fatalf("tick %d: campus keyed digest %x != region keyed digest %x", tick, cd, rd)
		}
	}
	if campusP.Churn.AbsentCount() == 0 {
		t.Error("churn never removed a node; the keyed timeline was not exercised")
	}
	if got, want := region.Lanes[0].NoLE.ReceivedLUs(), campusP.Lanes[0].NoLE.ReceivedLUs(); got != want {
		t.Errorf("ReceivedLUs = %d, want %d", got, want)
	}
}

// TestShardedKeyedWorkerDeterminism: digests of a run with Bernoulli
// gateway drops must agree at every worker count, and stay pinned across
// releases — the keyed PRF
// is a frozen function of (seed, stream, id, tick), so this digest only
// moves when the simulation semantics themselves change. Re-pin
// deliberately if they do.
func TestShardedKeyedWorkerDeterminism(t *testing.T) {
	const (
		ticks = 60
		// Final-tick StateDigest of the seed-23 keyed run below.
		pinnedFinal = uint64(0x1c10c40c62c21fe8)
	)
	workerCounts := []int{1, 2, 4, 8}
	var ref []uint64
	for _, w := range workerCounts {
		p := newTestSharded(t, 23, 0.2, [2]float64{0.01, 0.2}, w, adfFactory)
		digests := make([]uint64, 0, ticks)
		for tick := 1; tick <= ticks; tick++ {
			if err := p.Tick(float64(tick)); err != nil {
				t.Fatal(err)
			}
			digests = append(digests, p.StateDigest())
		}
		p.Close()
		if ref == nil {
			ref = digests
			continue
		}
		for i := range ref {
			if digests[i] != ref[i] {
				t.Fatalf("workers=%d: tick %d keyed digest %x != workers=%d digest %x",
					w, i+1, digests[i], workerCounts[0], ref[i])
			}
		}
	}
	if got := ref[len(ref)-1]; got != pinnedFinal {
		t.Errorf("final keyed digest %#016x, pinned %#016x (re-pin only on a deliberate semantics change)", got, pinnedFinal)
	}
}

// TestShardedObserverEvents: the region partition's lane stage must
// emit exactly the event multiset the campus partition emits.
func TestShardedObserverEvents(t *testing.T) {
	obs := &countingObserver{}
	p := newTestSharded(t, 7, 0, [2]float64{}, 2, idealFactory)
	p.Lanes[0].Observer = obs
	if err := p.Run(sim.New(), 10); err != nil {
		t.Fatal(err)
	}
	nodes := len(p.Nodes)
	if obs.ticks != 10 {
		t.Errorf("ticks = %d, want 10", obs.ticks)
	}
	if obs.offered != nodes*10 || obs.transmitted != nodes*10 {
		t.Errorf("offered/transmitted = %d/%d, want %d/%d",
			obs.offered, obs.transmitted, nodes*10, nodes*10)
	}
	if obs.errs != 2*nodes*10 {
		t.Errorf("errs = %d, want %d", obs.errs, 2*nodes*10)
	}
	if got := p.Lanes[0].NoLE.NodeCount(); got != nodes {
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
