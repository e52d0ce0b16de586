package gateway

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/sim"
)

// BurstConfig models correlated wireless outages with a two-state
// Gilbert–Elliott chain at the gateway: the base station is either up
// (dropping samples with DropUp) or in an outage (dropping with
// DropDown). The chain advances once per sampling period.
type BurstConfig struct {
	// PEnterOutage is the per-second probability of an up gateway going
	// down.
	PEnterOutage float64
	// PExitOutage is the per-second probability of a down gateway
	// recovering; its reciprocal is the mean outage length in seconds.
	PExitOutage float64
	// DropUp is the per-sample loss probability while up.
	DropUp float64
	// DropDown is the per-sample loss probability during an outage
	// (typically 1).
	DropDown float64
}

// Validate reports configuration errors.
func (c BurstConfig) Validate() error {
	for _, f := range [...]struct {
		name string
		p    float64
	}{
		{"PEnterOutage", c.PEnterOutage},
		{"PExitOutage", c.PExitOutage},
		{"DropUp", c.DropUp},
		{"DropDown", c.DropDown},
	} {
		if f.p < 0 || f.p > 1 {
			return fmt.Errorf("gateway: %s %v outside [0, 1]", f.name, f.p)
		}
	}
	if c.PEnterOutage > 0 && c.PExitOutage == 0 {
		return fmt.Errorf("gateway: outages can start but never end")
	}
	return nil
}

// MeanLoss returns the chain's long-run average per-sample loss rate.
func (c BurstConfig) MeanLoss() float64 {
	if c.PEnterOutage == 0 {
		return c.DropUp
	}
	// Stationary distribution of the two-state chain.
	downFrac := c.PEnterOutage / (c.PEnterOutage + c.PExitOutage)
	return (1-downFrac)*c.DropUp + downFrac*c.DropDown
}

// BurstGateway is a region gateway with correlated outages. It
// implements the same Collect contract as Gateway.
type BurstGateway struct {
	region campus.RegionID
	cfg    BurstConfig
	keyed  *sim.Keyed
	// key is the gateway's id slot in the keyed PRF (outage-chain draws).
	key int

	down     bool
	lastTime float64
	started  bool

	received uint64
	dropped  uint64
	outages  uint64
}

// NewBurstKeyed returns a Gilbert–Elliott gateway on the keyed PRF: the
// outage chain draws one uniform per sampling period keyed by (gateway,
// period) and the per-sample drop is keyed by (node, sample time), so
// neither draw depends on arrival order.
func NewBurstKeyed(region campus.RegionID, cfg BurstConfig, keyed *sim.Keyed) (*BurstGateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if keyed == nil {
		return nil, fmt.Errorf("gateway: nil keyed PRF")
	}
	return &BurstGateway{region: region, cfg: cfg, keyed: keyed, key: regionKey(region)}, nil
}

// Region returns the covered region.
func (g *BurstGateway) Region() campus.RegionID { return g.region }

// Down reports whether the gateway is currently in an outage.
func (g *BurstGateway) Down() bool { return g.down }

// Outages returns how many outages have started.
func (g *BurstGateway) Outages() uint64 { return g.outages }

// Received returns the number of samples offered.
func (g *BurstGateway) Received() uint64 { return g.received }

// Dropped returns the number of samples lost.
func (g *BurstGateway) Dropped() uint64 { return g.dropped }

// advance steps the outage chain once per elapsed sampling period.
//
//adf:owns StreamOutage — the outage-chain draw, keyed by (gateway, period)
func (g *BurstGateway) advance(now float64) {
	if !g.started {
		g.started = true
		g.lastTime = now
		return
	}
	for ; g.lastTime < now; g.lastTime++ {
		// One uniform per period steps the chain; only the transition
		// matching the current state consumes it.
		u := g.keyed.Float64(sim.StreamOutage, g.key, math.Float64bits(g.lastTime))
		if g.down {
			if u < g.cfg.PExitOutage {
				g.down = false
			}
		} else if u < g.cfg.PEnterOutage {
			g.down = true
			g.outages++
		}
	}
}

// Collect offers one sample; false means the sample was lost.
//
//adf:owns StreamGatewayDrop — the drop draw, keyed by (node, sample time)
func (g *BurstGateway) Collect(lu filter.LU) (filter.LU, bool) {
	g.advance(lu.Time)
	g.received++
	drop := g.cfg.DropUp
	if g.down {
		drop = g.cfg.DropDown
	}
	if drop > 0 && g.keyed.Bool(sim.StreamGatewayDrop, lu.Node, math.Float64bits(lu.Time), drop) {
		g.dropped++
		return filter.LU{}, false
	}
	return lu, true
}
