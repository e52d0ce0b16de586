// Package mobility implements the three mobility patterns of section 3.1:
// the Stop State (SS), the Random Movement State (RMS) and the Linear
// Movement State (LMS), for both human and vehicle profiles.
//
// A Model is advanced in fixed steps by the simulation's 1 Hz sampling
// loop and yields the node's true position. All randomness comes from the
// RNG injected at construction, so runs are reproducible.
package mobility

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// Model is one node's movement process.
type Model interface {
	// Advance moves the node dt seconds forward and returns the new
	// position. dt must be positive.
	Advance(dt float64) geo.Point
	// Pos returns the current position without advancing.
	Pos() geo.Point
}

// Stop is the SS pattern: the node never moves.
type Stop struct {
	p geo.Point
}

var _ Model = (*Stop)(nil)

// NewStop returns a stationary node at p.
func NewStop(p geo.Point) *Stop { return &Stop{p: p} }

// Advance implements Model.
func (s *Stop) Advance(float64) geo.Point { return s.p }

// Pos implements Model.
func (s *Stop) Pos() geo.Point { return s.p }

// RandomWalk is the RMS pattern: a bounded random walk inside an area (a
// lab, a lounge), re-drawing heading and speed every few seconds and
// reflecting off the boundary. Speeds are drawn uniformly from
// [MinSpeed, MaxSpeed], so a node may also briefly linger.
type RandomWalk struct {
	bounds   geo.Rect
	minSpeed float64
	maxSpeed float64
	// redrawMean is the mean dwell time (s) before re-drawing direction.
	redrawMean float64

	rng     *sim.RNG
	p       geo.Point
	heading float64
	// cosH and sinH are cos and sin of heading, refreshed only where the
	// heading changes (redraw and the bounce): the heading holds for
	// seconds, and a step multiplies the same cached factors by its
	// length, so every step is bit for bit geo.FromHeading's.
	cosH, sinH float64
	speed      float64
	// timeToRedraw counts down to the next heading/speed change.
	timeToRedraw float64
}

var _ Model = (*RandomWalk)(nil)

// NewRandomWalk returns an RMS walker confined to bounds, starting at
// start (clamped into bounds). Speeds in m/s.
func NewRandomWalk(bounds geo.Rect, start geo.Point, minSpeed, maxSpeed float64, rng *sim.RNG) (*RandomWalk, error) {
	if err := finite("minSpeed", minSpeed); err != nil {
		return nil, err
	}
	if err := finite("maxSpeed", maxSpeed); err != nil {
		return nil, err
	}
	if minSpeed < 0 || maxSpeed < minSpeed {
		return nil, fmt.Errorf("mobility: invalid speed range [%v, %v]", minSpeed, maxSpeed)
	}
	if rng == nil {
		return nil, fmt.Errorf("mobility: nil RNG")
	}
	w := &RandomWalk{
		bounds:     bounds,
		minSpeed:   minSpeed,
		maxSpeed:   maxSpeed,
		redrawMean: 3,
		rng:        rng,
		p:          bounds.ClampPoint(start),
	}
	w.redraw()
	return w, nil
}

func (w *RandomWalk) redraw() {
	w.setHeading(w.rng.Heading())
	w.speed = w.rng.Uniform(w.minSpeed, w.maxSpeed)
	w.timeToRedraw = w.rng.Exp(w.redrawMean)
	if w.timeToRedraw < 0.5 {
		w.timeToRedraw = 0.5
	}
}

// setHeading turns the walker to h and refreshes the cached cos and sin.
func (w *RandomWalk) setHeading(h float64) {
	w.heading = h
	w.sinH, w.cosH = math.Sincos(h)
}

// Advance implements Model.
//
//adf:hotpath
func (w *RandomWalk) Advance(dt float64) geo.Point {
	remaining := dt
	for remaining > 0 {
		step := remaining
		if w.timeToRedraw < step {
			step = w.timeToRedraw
		}
		l := w.speed * step
		next := w.p.Add(geo.Vec{DX: w.cosH * l, DY: w.sinH * l})
		if !w.bounds.Contains(next) {
			// Bounce: turn around with some scatter and clamp inside.
			next = w.bounds.ClampPoint(next)
			w.setHeading(geo.NormalizeAngle(w.heading + 3.141592653589793 + w.rng.Uniform(-0.5, 0.5)))
		}
		w.p = next
		w.timeToRedraw -= step
		if w.timeToRedraw <= 0 {
			w.redraw()
		}
		remaining -= step
	}
	return w.p
}

// Pos implements Model.
func (w *RandomWalk) Pos() geo.Point { return w.p }

// Waypoints is the LMS pattern: directed movement through an ordered list
// of waypoints. The leg speed is re-drawn from [MinSpeed, MaxSpeed] at
// each waypoint with small per-advance jitter, reproducing "movement
// velocity and direction are normal" with direction changes only at
// intersections. After the last waypoint the route either reverses
// (shuttle) or restarts (loop).
type Waypoints struct {
	route    []geo.Point
	shuttle  bool
	minSpeed float64
	maxSpeed float64
	// jitter is the relative per-advance speed perturbation (e.g. 0.1 for
	// ±10%); it gives clusters the intra-cluster speed spread real
	// pedestrians have.
	jitter float64
	// redraw re-draws the speed from the full range on every Advance.
	redraw bool

	rng     *sim.RNG
	p       geo.Point
	idx     int // index of the waypoint being approached
	dir     int // +1 forward, -1 backward (shuttle only)
	legBase float64
}

var _ Model = (*Waypoints)(nil)

// WaypointsConfig parameterises an LMS mover.
type WaypointsConfig struct {
	// Route is the ordered waypoint list; at least two points.
	Route []geo.Point
	// Shuttle reverses direction at the ends instead of jumping back to
	// the start.
	Shuttle bool
	// MinSpeed and MaxSpeed bound the per-leg base speed in m/s.
	MinSpeed, MaxSpeed float64
	// SpeedJitter is the relative per-advance speed perturbation, in
	// [0, 1).
	SpeedJitter float64
	// RedrawPerAdvance re-draws the speed uniformly from
	// [MinSpeed, MaxSpeed] on every Advance instead of keeping a per-leg
	// base speed. This applies Table 1's velocity range per sampling
	// period, the reading under which the paper's reduction and error
	// results are mutually consistent (see DESIGN.md). SpeedJitter is
	// ignored when set.
	RedrawPerAdvance bool
}

// NewWaypoints returns an LMS mover starting at the first waypoint.
func NewWaypoints(cfg WaypointsConfig, rng *sim.RNG) (*Waypoints, error) {
	if len(cfg.Route) < 2 {
		return nil, fmt.Errorf("mobility: route needs at least 2 waypoints, got %d", len(cfg.Route))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"MinSpeed", cfg.MinSpeed}, {"MaxSpeed", cfg.MaxSpeed}, {"SpeedJitter", cfg.SpeedJitter}} {
		if err := finite(f.name, f.v); err != nil {
			return nil, err
		}
	}
	if cfg.MinSpeed <= 0 || cfg.MaxSpeed < cfg.MinSpeed {
		return nil, fmt.Errorf("mobility: invalid speed range [%v, %v]", cfg.MinSpeed, cfg.MaxSpeed)
	}
	if cfg.SpeedJitter < 0 || cfg.SpeedJitter >= 1 {
		return nil, fmt.Errorf("mobility: SpeedJitter %v outside [0, 1)", cfg.SpeedJitter)
	}
	// Advance spends a positive budget along the legs, so a route that
	// never moves (every waypoint the same point) would loop forever. A
	// NaN length (a NaN waypoint) fails every comparison.
	var length float64
	for i := 1; i < len(cfg.Route); i++ {
		length += cfg.Route[i].Dist(cfg.Route[i-1])
	}
	if !(length > 0) || math.IsInf(length, 1) {
		return nil, fmt.Errorf("mobility: Route total length %v not positive and finite", length)
	}
	if rng == nil {
		return nil, fmt.Errorf("mobility: nil RNG")
	}
	w := &Waypoints{
		route:    append([]geo.Point(nil), cfg.Route...),
		shuttle:  cfg.Shuttle,
		minSpeed: cfg.MinSpeed,
		maxSpeed: cfg.MaxSpeed,
		jitter:   cfg.SpeedJitter,
		redraw:   cfg.RedrawPerAdvance,
		rng:      rng,
		p:        cfg.Route[0],
		idx:      1,
		dir:      1,
	}
	w.legBase = rng.Uniform(cfg.MinSpeed, cfg.MaxSpeed)
	return w, nil
}

// finite rejects a NaN or infinite parameter by name: a NaN compares
// false against every range bound, and an infinite speed turns Advance's
// distance budget infinite.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("mobility: %s %v not finite", name, v)
	}
	return nil
}

// target returns the waypoint currently being approached.
func (w *Waypoints) target() geo.Point { return w.route[w.idx] }

// nextLeg advances the waypoint index and re-draws the leg speed.
func (w *Waypoints) nextLeg() {
	if w.shuttle {
		if w.dir > 0 && w.idx == len(w.route)-1 {
			w.dir = -1
		} else if w.dir < 0 && w.idx == 0 {
			w.dir = 1
		}
		w.idx += w.dir
	} else {
		w.idx++
		if w.idx >= len(w.route) {
			w.idx = 0
		}
	}
	w.legBase = w.rng.Uniform(w.minSpeed, w.maxSpeed)
}

// Advance implements Model.
//
//adf:hotpath
func (w *Waypoints) Advance(dt float64) geo.Point {
	var speed float64
	if w.redraw {
		speed = w.rng.Uniform(w.minSpeed, w.maxSpeed)
	} else {
		speed = w.legBase
		if w.jitter > 0 {
			speed *= 1 + w.rng.Uniform(-w.jitter, w.jitter)
		}
	}
	budget := speed * dt
	for budget > 0 {
		to := w.target()
		// One Hypot per leg step: Dist(p, to) and the length of to−p are
		// the same value, since both the subtraction and math.Hypot are
		// sign-symmetric. d > budget > 0 rules out the zero vector.
		v := to.Sub(w.p)
		d := v.Len()
		if d > budget {
			w.p = w.p.Add(geo.Vec{DX: v.DX / d, DY: v.DY / d}.Scale(budget))
			break
		}
		w.p = to
		budget -= d
		w.nextLeg()
	}
	return w.p
}

// Pos implements Model.
func (w *Waypoints) Pos() geo.Point { return w.p }
