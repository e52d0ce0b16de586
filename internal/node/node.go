// Package node binds a Table-1 population row to a concrete mobile node:
// it instantiates the right mobility model for the node's region and
// pattern, tracks the node's true position, and produces the raw location
// samples the wireless gateways collect.
package node

import (
	"fmt"
	"strconv"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/mobility"
	"github.com/mobilegrid/adf/internal/sim"
)

// Node is one mobile grid node (a PDA, laptop or cell phone, or a vehicle
// carrying one).
type Node struct {
	spec   campus.NodeSpec
	region *campus.Region
	model  mobility.Model
}

// New builds a node from its population spec, placed inside its home
// region on the given campus. All randomness (start position, route,
// speeds) comes from rng.
func New(spec campus.NodeSpec, c *campus.Campus, rng *sim.RNG) (*Node, error) {
	n := new(Node)
	if err := n.init(spec, c, rng); err != nil {
		return nil, err
	}
	return n, nil
}

// init builds the node in place; New and Population both construct
// through it.
func (n *Node) init(spec campus.NodeSpec, c *campus.Campus, rng *sim.RNG) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if rng == nil {
		return fmt.Errorf("node: nil RNG")
	}
	region, err := c.Region(spec.Region)
	if err != nil {
		return err
	}
	model, err := buildModel(spec, region, rng)
	if err != nil {
		return fmt.Errorf("node %d: %w", spec.ID, err)
	}
	*n = Node{spec: spec, region: region, model: model}
	return nil
}

func buildModel(spec campus.NodeSpec, region *campus.Region, rng *sim.RNG) (mobility.Model, error) {
	switch spec.Mobility {
	case campus.Stop:
		return mobility.NewStop(randomPointIn(region.Bounds, rng)), nil
	case campus.Random:
		if region.Kind != campus.Building {
			return nil, fmt.Errorf("RMS nodes only occur in buildings, got %s", region.ID)
		}
		return mobility.NewRandomWalk(region.Bounds, randomPointIn(region.Bounds, rng),
			spec.MinSpeed, spec.MaxSpeed, rng)
	case campus.Linear:
		// NewWaypoints only reads its route, so every node on a road
		// shares the road's path.
		route := region.Path
		if region.Kind != campus.Road {
			// Corridor walk: a handful of well-separated interior points.
			route = corridorRoute(region.Bounds, rng)
		}
		m, err := mobility.NewWaypoints(mobility.WaypointsConfig{
			Route:            route,
			Shuttle:          true,
			MinSpeed:         spec.MinSpeed,
			MaxSpeed:         spec.MaxSpeed,
			RedrawPerAdvance: true,
		}, rng)
		if err != nil {
			return nil, err
		}
		// Pre-warm by a random stretch so the population does not start
		// bunched at the route heads.
		m.Advance(rng.Uniform(0, routeLength(route)/spec.MaxSpeed))
		return m, nil
	default:
		return nil, fmt.Errorf("unknown mobility %v", spec.Mobility)
	}
}

// corridorRoute picks 4 interior waypoints with a minimum leg length so a
// building LMS node walks recognisable straight stretches.
func corridorRoute(bounds geo.Rect, rng *sim.RNG) []geo.Point {
	const points = 4
	minLeg := bounds.Width() / 4
	route := make([]geo.Point, 1, points)
	route[0] = randomPointIn(bounds, rng)
	for len(route) < points {
		p := randomPointIn(bounds, rng)
		if p.Dist(route[len(route)-1]) >= minLeg {
			route = append(route, p)
		}
	}
	return route
}

func randomPointIn(r geo.Rect, rng *sim.RNG) geo.Point {
	return geo.Point{
		X: rng.Uniform(r.Min.X, r.Max.X),
		Y: rng.Uniform(r.Min.Y, r.Max.Y),
	}
}

func routeLength(route []geo.Point) float64 {
	var sum float64
	for i := 1; i < len(route); i++ {
		sum += route[i-1].Dist(route[i])
	}
	return sum
}

// ID returns the node's population ID.
func (n *Node) ID() int { return n.spec.ID }

// Spec returns the node's population row.
func (n *Node) Spec() campus.NodeSpec { return n.spec }

// Region returns the node's home region.
func (n *Node) Region() *campus.Region { return n.region }

// Pos returns the node's current true position.
func (n *Node) Pos() geo.Point { return n.model.Pos() }

// Advance moves the node dt seconds forward and returns its new true
// position.
func (n *Node) Advance(dt float64) geo.Point { return n.model.Advance(dt) }

// Population instantiates every node of a population spec with
// per-node deterministic random streams derived from streams: each node
// draws from the stream named "node-<ID>". The nodes are built in place
// in one block.
func Population(specs []campus.NodeSpec, c *campus.Campus, streams *sim.Streams) ([]*Node, error) {
	block := make([]Node, len(specs))
	nodes := make([]*Node, len(specs))
	name := make([]byte, 0, 32)
	for i, spec := range specs {
		name = strconv.AppendInt(append(name[:0], "node-"...), int64(spec.ID), 10)
		if err := block[i].init(spec, c, streams.StreamBytes(name)); err != nil {
			return nil, err
		}
		nodes[i] = &block[i]
	}
	return nodes, nil
}
