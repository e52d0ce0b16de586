package campus

import "fmt"

// Mobility is the configured mobility pattern of a node in the Table-1
// population. (The ADF's classifier infers its own view of the pattern
// from observed motion; this is the ground-truth generator setting.)
type Mobility int

const (
	// Stop is the SS pattern: no movement.
	Stop Mobility = iota + 1
	// Random is the RMS pattern: bounded random movement.
	Random
	// Linear is the LMS pattern: movement with a destination.
	Linear
)

// String implements fmt.Stringer.
func (m Mobility) String() string {
	switch m {
	case Stop:
		return "SS"
	case Random:
		return "RMS"
	case Linear:
		return "LMS"
	default:
		return "unknown"
	}
}

// NodeType distinguishes pedestrians from vehicles (Table 1's "MN Type").
type NodeType int

const (
	// Human nodes walk or run.
	Human NodeType = iota + 1
	// Vehicle nodes drive on roads.
	Vehicle
)

// String implements fmt.Stringer.
func (t NodeType) String() string {
	switch t {
	case Human:
		return "human"
	case Vehicle:
		return "vehicle"
	default:
		return "unknown"
	}
}

// NodeSpec is one row of the population: a mobile node's home region,
// mobility pattern, type and velocity range (Table 1).
type NodeSpec struct {
	ID       int
	Region   RegionID
	Mobility Mobility
	Type     NodeType
	// MinSpeed and MaxSpeed bound the node's base speed in m/s.
	MinSpeed, MaxSpeed float64
}

// Validate reports specification errors.
func (s NodeSpec) Validate() error {
	if s.ID < 0 {
		return fmt.Errorf("campus: negative node ID %d", s.ID)
	}
	if s.Region == "" {
		return fmt.Errorf("campus: node %d has no region", s.ID)
	}
	if s.MinSpeed < 0 || s.MaxSpeed < s.MinSpeed {
		return fmt.Errorf("campus: node %d has invalid speed range [%v, %v]", s.ID, s.MinSpeed, s.MaxSpeed)
	}
	if s.Mobility == Stop && s.MaxSpeed != 0 {
		return fmt.Errorf("campus: node %d is SS but has non-zero speed", s.ID)
	}
	if s.Mobility != Stop && s.Mobility != Random && s.MaxSpeed <= 0 {
		return fmt.Errorf("campus: node %d is %v but cannot move", s.ID, s.Mobility)
	}
	return nil
}

// Table-1 velocity ranges, in m/s. The paper sets road humans to 1–4 m/s
// (walking to running), road vehicles between running speed and 40 km/h
// (≈4–11 m/s; we use the paper's printed 4–10), building RMS between stop
// and walking (0–1 m/s), and building LMS at walking pace (up to 1.5 m/s;
// the lower bound keeps LMS nodes actually moving).
const (
	RoadHumanMinSpeed   = 1.0
	RoadHumanMaxSpeed   = 4.0
	RoadVehicleMinSpeed = 4.0
	RoadVehicleMaxSpeed = 10.0
	BuildingRMSMinSpeed = 0.0
	BuildingRMSMaxSpeed = 1.0
	BuildingLMSMinSpeed = 0.5
	BuildingLMSMaxSpeed = 1.5
)

// PerGroup is the paper's count of nodes per (region, pattern, type)
// group: "we assigned 5 MNs to each mobility pattern".
const PerGroup = 5

// Table1Population returns the paper's 140-node experiment population:
// per road, 5 LMS humans and 5 LMS vehicles; per building, 5 SS, 5 RMS
// and 5 LMS humans. IDs are assigned densely in region order, so the
// population is deterministic.
func Table1Population(c *Campus) []NodeSpec {
	return PopulationN(c, PerGroup)
}

// PopulationN returns the Table-1 population scaled to perGroup nodes per
// (region, pattern, type) group: 28 groups, so 28×perGroup nodes in
// total. perGroup below 1 yields an empty population.
func PopulationN(c *Campus, perGroup int) []NodeSpec {
	roads, buildings := c.Roads(), c.Buildings()
	specs := make([]NodeSpec, 0, max(perGroup, 0)*(2*len(roads)+3*len(buildings)))
	id := 0
	next := func(region RegionID, m Mobility, t NodeType, minV, maxV float64) {
		for i := 0; i < perGroup; i++ {
			specs = append(specs, NodeSpec{
				ID:       id,
				Region:   region,
				Mobility: m,
				Type:     t,
				MinSpeed: minV,
				MaxSpeed: maxV,
			})
			id++
		}
	}
	for _, r := range roads {
		next(r.ID, Linear, Human, RoadHumanMinSpeed, RoadHumanMaxSpeed)
		next(r.ID, Linear, Vehicle, RoadVehicleMinSpeed, RoadVehicleMaxSpeed)
	}
	for _, b := range buildings {
		next(b.ID, Stop, Human, 0, 0)
		next(b.ID, Random, Human, BuildingRMSMinSpeed, BuildingRMSMaxSpeed)
		next(b.ID, Linear, Human, BuildingLMSMinSpeed, BuildingLMSMaxSpeed)
	}
	return specs
}
