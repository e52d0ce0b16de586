package mobility

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// refWalkAdvance is the plain statement of RandomWalk.Advance: the step
// vector is geo.FromHeading of the current heading, recomputed every
// step. It drives w through its own redraw and RNG, so a walker and a
// reference walker built from the same seed draw the same stream.
func refWalkAdvance(w *RandomWalk, dt float64) geo.Point {
	remaining := dt
	for remaining > 0 {
		step := remaining
		if w.timeToRedraw < step {
			step = w.timeToRedraw
		}
		next := w.p.Add(geo.FromHeading(w.heading, w.speed*step))
		if !w.bounds.Contains(next) {
			next = w.bounds.ClampPoint(next)
			w.heading = geo.NormalizeAngle(w.heading + math.Pi + w.rng.Uniform(-0.5, 0.5))
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

// refWaypointsAdvance is the plain statement of Waypoints.Advance: the
// remaining leg length is Point.Dist and the direction Vec.Unit of the
// same difference.
func refWaypointsAdvance(w *Waypoints, dt float64) geo.Point {
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
		d := w.p.Dist(to)
		if d > budget {
			w.p = w.p.Add(to.Sub(w.p).Unit().Scale(budget))
			break
		}
		w.p = to
		budget -= d
		w.nextLeg()
	}
	return w.p
}

func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestRandomWalkMatchesReference pins RandomWalk.Advance to the
// per-step FromHeading reference bit for bit, over seeded runs in small
// and large bounds (so bounces are frequent and rare) with advances
// shorter and longer than a heading's dwell time.
func TestRandomWalkMatchesReference(t *testing.T) {
	bounces := 0
	for seed := int64(1); seed <= 8; seed++ {
		side := 3.0
		if seed%2 == 0 {
			side = 200
		}
		bounds := geo.NewRect(geo.Point{X: -side, Y: 1}, geo.Point{X: side, Y: 1 + side})
		w, err := NewRandomWalk(bounds, bounds.Center(), 0, 2.5, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRandomWalk(bounds, bounds.Center(), 0, 2.5, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		steps := []float64{1, 0.25, 2.5, 1, 7}
		for i := 0; i < 3000; i++ {
			dt := steps[i%len(steps)]
			want := refWalkAdvance(ref, dt)
			got := w.Advance(dt)
			if !samePoint(got, want) {
				t.Fatalf("seed %d step %d: Advance(%v) = %v, want %v", seed, i, dt, got, want)
			}
			// A clamped step ends on the boundary.
			if want.X == bounds.Min.X || want.X == bounds.Max.X || want.Y == bounds.Min.Y || want.Y == bounds.Max.Y {
				bounces++
			}
		}
	}
	if bounces < 100 {
		t.Fatalf("only %d bounces exercised", bounces)
	}
}

// TestWaypointsMatchesReference pins Waypoints.Advance to the
// Dist-plus-Unit reference bit for bit, over shuttle and loop routes
// (one with a zero-length leg), per-leg jitter and per-advance redraw,
// and advances that stop mid-leg, land on waypoints and cross several
// legs.
func TestWaypointsMatchesReference(t *testing.T) {
	routes := [][]geo.Point{
		{{X: 0.5, Y: -3}, {X: 40.25, Y: 7}, {X: 41, Y: 60.125}, {X: -12, Y: 33}},
		{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 9.5, Y: -4}, {X: 2, Y: 6}},
		{{}, {X: 3}},
	}
	legEnds := 0
	for ri, route := range routes {
		for _, shuttle := range []bool{false, true} {
			for mode := 0; mode < 3; mode++ {
				cfg := WaypointsConfig{Route: route, Shuttle: shuttle, MinSpeed: 0.7, MaxSpeed: 6.5}
				switch mode {
				case 1:
					cfg.SpeedJitter = 0.3
				case 2:
					cfg.RedrawPerAdvance = true
				}
				seed := int64(10*ri + mode)
				w, err := NewWaypoints(cfg, sim.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewWaypoints(cfg, sim.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				steps := []float64{1, 0.5, 3, 1, 12.5}
				for i := 0; i < 2000; i++ {
					dt := steps[i%len(steps)]
					leg := ref.idx
					want := refWaypointsAdvance(ref, dt)
					got := w.Advance(dt)
					if !samePoint(got, want) {
						t.Fatalf("route %d shuttle %v mode %d step %d: Advance(%v) = %v, want %v",
							ri, shuttle, mode, i, dt, got, want)
					}
					if ref.idx != leg {
						legEnds++
					}
				}
			}
		}
	}
	if legEnds < 1000 {
		t.Fatalf("only %d leg ends exercised", legEnds)
	}
}
