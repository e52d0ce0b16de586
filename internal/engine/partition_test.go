package engine_test

import (
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/oracle"
	"github.com/mobilegrid/adf/internal/sanitize"
	"github.com/mobilegrid/adf/internal/sim"
)

// The campus- and region-partition tests live in the external test
// package because they hold every tick to the run oracle, which imports
// engine; export_test.go lends them the package's pipeline builders.

// mustTick runs one sampling round of p at now and holds the result to the
// run oracle. The pipelines here run their lanes inline, so the brokers
// are current when Tick returns.
func mustTick(t *testing.T, p *engine.Pipeline, now float64) {
	t.Helper()
	if err := p.Tick(now); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Check(p); err != nil {
		t.Fatalf("tick %v: %v", now, err)
	}
}

// worldDigest folds the state both partitions share — node positions,
// the broker DB and counters, churn population — so campus and region runs
// can be compared even though their full StateDigests differ (those
// also fold shard membership).
func worldDigest(nodes []*node.Node, b *broker.Broker, churn *engine.KeyedChurn) uint64 {
	d := sanitize.NewDigest()
	for _, n := range nodes {
		d.WriteInt(n.ID())
		pos := n.Pos()
		d.WriteFloat64(pos.X)
		d.WriteFloat64(pos.Y)
	}
	b.DigestState(&d)
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
	campusP := engine.NewTestSharded(t, 11, 0.3, churnProbs, 0, engine.GeneralDFFactory)
	region := engine.NewTestSharded(t, 11, 0.3, churnProbs, 1, engine.GeneralDFFactory)
	defer region.Close()

	for tick := 1; tick <= ticks; tick++ {
		now := float64(tick)
		mustTick(t, campusP, now)
		mustTick(t, region, now)
		cd := worldDigest(campusP.Nodes, campusP.Lanes[0].Broker, campusP.Churn)
		rd := worldDigest(region.Nodes, region.Lanes[0].Broker, region.Churn)
		if cd != rd {
			t.Fatalf("tick %d: campus digest %x != region digest %x", tick, cd, rd)
		}
	}
	if len(campusP.ShardFilters()) != 1 || len(region.ShardFilters()) < 2 {
		t.Errorf("shard counts campus %d, region %d; want 1 and one per region",
			len(campusP.ShardFilters()), len(region.ShardFilters()))
	}
	if got, want := region.Lanes[0].Broker.ReceivedLUs(), campusP.Lanes[0].Broker.ReceivedLUs(); got != want {
		t.Errorf("ReceivedLUs = %d, want %d", got, want)
	}
	if got, want := region.Lanes[0].Broker.EstimatedLUs(), campusP.Lanes[0].Broker.EstimatedLUs(); got != want {
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
		p := engine.NewTestSharded(t, 23, 0, [2]float64{0.01, 0.2}, w, engine.ADFFactory)
		net, err := gateway.NewBurstNetworkKeyed(campus.New(), burst, sim.NewKeyed(23))
		if err != nil {
			t.Fatal(err)
		}
		p.Net = net
		digests := make([]uint64, 0, ticks)
		for tick := 1; tick <= ticks; tick++ {
			mustTick(t, p, float64(tick))
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
	campusP := engine.NewTestSharded(t, seed, drop, churnProbs, 0, engine.GeneralDFFactory)
	region := engine.NewTestSharded(t, seed, drop, churnProbs, 2, engine.GeneralDFFactory)
	defer region.Close()

	for tick := 1; tick <= ticks; tick++ {
		now := float64(tick)
		mustTick(t, campusP, now)
		mustTick(t, region, now)
		cd := worldDigest(campusP.Nodes, campusP.Lanes[0].Broker, campusP.Churn)
		rd := worldDigest(region.Nodes, region.Lanes[0].Broker, region.Churn)
		if cd != rd {
			t.Fatalf("tick %d: campus keyed digest %x != region keyed digest %x", tick, cd, rd)
		}
	}
	if campusP.Churn.AbsentCount() == 0 {
		t.Error("churn never removed a node; the keyed timeline was not exercised")
	}
	if got, want := region.Lanes[0].Broker.ReceivedLUs(), campusP.Lanes[0].Broker.ReceivedLUs(); got != want {
		t.Errorf("ReceivedLUs = %d, want %d", got, want)
	}
}

// TestShardedKeyedWorkerDeterminism: digests of a run with Bernoulli
// gateway drops must agree at every worker count, and stay pinned across
// releases — the keyed PRF
// is a frozen function of (seed, stream, id, tick), so this digest only
// moves when the simulation semantics or the digest's own layout change.
// Re-pin deliberately if they do.
func TestShardedKeyedWorkerDeterminism(t *testing.T) {
	const (
		ticks = 60
		// Final-tick StateDigest of the seed-23 keyed run below.
		pinnedFinal = uint64(0x242b30356e4a0668)
	)
	workerCounts := []int{1, 2, 4, 8}
	var ref []uint64
	for _, w := range workerCounts {
		p := engine.NewTestSharded(t, 23, 0.2, [2]float64{0.01, 0.2}, w, engine.ADFFactory)
		digests := make([]uint64, 0, ticks)
		for tick := 1; tick <= ticks; tick++ {
			mustTick(t, p, float64(tick))
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

// TestCampusADFRunHoldsOracle drives the campus partition — one
// campus-wide ADF clustering — with wireless drops and churn, so nodes
// leave and rejoin clusters mid-run, and holds every tick to the run
// oracle.
func TestCampusADFRunHoldsOracle(t *testing.T) {
	p := engine.NewTestSharded(t, 5, 0.2, [2]float64{0.02, 0.3}, 0, engine.ADFFactory)
	left := false
	for k := 1; k <= 60; k++ {
		mustTick(t, p, float64(k))
		left = left || p.Churn.AbsentCount() > 0
	}
	if !left {
		t.Error("churn never removed a node")
	}
	if p.ShardFilters()[0][0].(*core.ADF).ClusterCount() == 0 {
		t.Error("the ADF formed no clusters")
	}
}
