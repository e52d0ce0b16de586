// Package gateway models the wireless access layer between mobile nodes
// and the ADF: per-region base stations / access points that collect
// location updates and forward them. The paper's "frequent disconnectivity"
// constraint is reproduced with a Bernoulli per-sample drop: a disconnected
// node's LU never reaches the ADF that sampling period.
package gateway

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/sim"
)

// Gateway is one region's base station or access point.
type Gateway struct {
	region   campus.RegionID
	dropProb float64
	keyed    *sim.Keyed

	received uint64
	dropped  uint64
}

// NewKeyed returns a gateway for a region. dropProb in [0, 1) is the
// per-sample probability that a node is disconnected. Each sample's
// drop draw comes from the order-independent keyed PRF, keyed by the
// node and the sample time, so the verdict does not depend on how many
// other samples the gateway saw first, and the draw is safe anywhere in
// the shard stage.
func NewKeyed(region campus.RegionID, dropProb float64, keyed *sim.Keyed) (*Gateway, error) {
	if dropProb < 0 || dropProb >= 1 {
		return nil, fmt.Errorf("gateway: dropProb %v outside [0, 1)", dropProb)
	}
	if keyed == nil {
		return nil, fmt.Errorf("gateway: nil keyed PRF")
	}
	return &Gateway{region: region, dropProb: dropProb, keyed: keyed}, nil
}

// Region returns the region this gateway covers.
func (g *Gateway) Region() campus.RegionID { return g.region }

// Collect offers one node sample to the gateway. It returns false when
// the node was disconnected this period and the LU was lost.
//
//adf:owns StreamGatewayDrop — the drop draw, keyed by (node, sample time)
func (g *Gateway) Collect(lu filter.LU) (filter.LU, bool) {
	g.received++
	if g.dropProb > 0 && g.keyed.Bool(sim.StreamGatewayDrop, lu.Node, math.Float64bits(lu.Time), g.dropProb) {
		g.dropped++
		return filter.LU{}, false
	}
	return lu, true
}

// Received returns the number of samples offered to the gateway.
func (g *Gateway) Received() uint64 { return g.received }

// Dropped returns the number of samples lost to disconnection.
func (g *Gateway) Dropped() uint64 { return g.dropped }

// Collector is the access-layer contract a network gateway fulfils:
// collect one node sample, or lose it to disconnection.
type Collector interface {
	// Region returns the covered region.
	Region() campus.RegionID
	// Collect offers a sample; false means it was lost.
	Collect(lu filter.LU) (filter.LU, bool)
	// Received returns the number of samples offered.
	Received() uint64
	// Dropped returns the number of samples lost.
	Dropped() uint64
}

var (
	_ Collector = (*Gateway)(nil)
	_ Collector = (*BurstGateway)(nil)
)

// Network is the campus-wide access layer: one gateway per region.
type Network struct {
	gateways map[campus.RegionID]Collector
}

// NewNetwork builds one Bernoulli-loss gateway per campus region on the
// keyed PRF of the streams' root seed (see NewNetworkKeyed).
func NewNetwork(c *campus.Campus, dropProb float64, streams *sim.Streams) (*Network, error) {
	return NewNetworkKeyed(c, dropProb, sim.NewKeyed(streams.Seed()))
}

// NewNetworkKeyed builds one Bernoulli-loss gateway per campus region,
// all drawing from the shared keyed PRF (see NewKeyed).
func NewNetworkKeyed(c *campus.Campus, dropProb float64, keyed *sim.Keyed) (*Network, error) {
	return buildNetwork(c, func(id campus.RegionID) (Collector, error) {
		return NewKeyed(id, dropProb, keyed)
	})
}

// NewBurstNetworkKeyed builds one Gilbert–Elliott gateway per campus
// region on the keyed PRF (see NewBurstKeyed).
func NewBurstNetworkKeyed(c *campus.Campus, cfg BurstConfig, keyed *sim.Keyed) (*Network, error) {
	return buildNetwork(c, func(id campus.RegionID) (Collector, error) {
		return NewBurstKeyed(id, cfg, keyed)
	})
}

func buildNetwork(c *campus.Campus, build func(campus.RegionID) (Collector, error)) (*Network, error) {
	n := &Network{gateways: make(map[campus.RegionID]Collector)}
	for _, r := range c.Regions() {
		g, err := build(r.ID)
		if err != nil {
			return nil, err
		}
		n.gateways[r.ID] = g
	}
	return n, nil
}

// regionKey hashes a region ID into the keyed PRF's id slot, giving each
// gateway's own draws (the outage chain) a distinct key without a
// per-gateway stream object.
func regionKey(id campus.RegionID) int {
	h := fnv.New64a()
	// hash.Hash Write never errors.
	_, _ = h.Write([]byte(id))
	return int(h.Sum64() >> 1)
}

// Gateway returns the gateway covering a region.
func (n *Network) Gateway(region campus.RegionID) (Collector, error) {
	g, ok := n.gateways[region]
	if !ok {
		return nil, fmt.Errorf("gateway: no gateway for region %q", region)
	}
	return g, nil
}

// Collect routes one node sample through the gateway of its home region.
func (n *Network) Collect(region campus.RegionID, lu filter.LU) (filter.LU, bool, error) {
	g, err := n.Gateway(region)
	if err != nil {
		return filter.LU{}, false, err
	}
	out, ok := g.Collect(lu)
	return out, ok, nil
}

// Stats summarises one gateway's counters.
type Stats struct {
	Region   campus.RegionID
	Received uint64
	Dropped  uint64
}

// Stats returns per-gateway counters ordered by region ID.
func (n *Network) Stats() []Stats {
	out := make([]Stats, 0, len(n.gateways))
	for _, g := range n.gateways {
		out = append(out, Stats{Region: g.Region(), Received: g.Received(), Dropped: g.Dropped()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}
