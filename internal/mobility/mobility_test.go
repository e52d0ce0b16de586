package mobility

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

func TestStop(t *testing.T) {
	p := geo.Point{X: 3, Y: 4}
	s := NewStop(p)
	if s.Pos() != p {
		t.Errorf("Pos = %v", s.Pos())
	}
	for i := 0; i < 10; i++ {
		if got := s.Advance(1); got != p {
			t.Fatalf("Advance moved a stop node to %v", got)
		}
	}
}

func TestRandomWalkValidation(t *testing.T) {
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 10, Y: 10})
	rng := sim.NewRNG(1)
	if _, err := NewRandomWalk(bounds, geo.Point{}, -1, 1, rng); err == nil {
		t.Error("negative min speed accepted")
	}
	if _, err := NewRandomWalk(bounds, geo.Point{}, 2, 1, rng); err == nil {
		t.Error("inverted speed range accepted")
	}
	if _, err := NewRandomWalk(bounds, geo.Point{}, 0, 1, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestRandomWalkStaysInBounds(t *testing.T) {
	bounds := geo.NewRect(geo.Point{X: 10, Y: 10}, geo.Point{X: 50, Y: 40})
	w, err := NewRandomWalk(bounds, bounds.Center(), 0, 1, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		p := w.Advance(1)
		if !bounds.Contains(p) {
			t.Fatalf("step %d escaped bounds: %v", i, p)
		}
	}
}

func TestRandomWalkStartClamped(t *testing.T) {
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 10, Y: 10})
	w, err := NewRandomWalk(bounds, geo.Point{X: 100, Y: 100}, 0, 1, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bounds.Contains(w.Pos()) {
		t.Errorf("start not clamped: %v", w.Pos())
	}
}

func TestRandomWalkSpeedBounded(t *testing.T) {
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 1000})
	w, err := NewRandomWalk(bounds, bounds.Center(), 0.2, 0.9, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	prev := w.Pos()
	for i := 0; i < 1000; i++ {
		p := w.Advance(1)
		// Per-second displacement can be below min speed (direction may
		// change mid-step or bounce), but never above max speed.
		if d := p.Dist(prev); d > 0.9+1e-9 {
			t.Fatalf("step %d moved %v m/s > max 0.9", i, d)
		}
		prev = p
	}
}

func TestRandomWalkActuallyMoves(t *testing.T) {
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	w, err := NewRandomWalk(bounds, bounds.Center(), 0.5, 1, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	start := w.Pos()
	moved := false
	for i := 0; i < 50; i++ {
		if w.Advance(1).Dist(start) > 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("random walk never moved")
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	mk := func() *RandomWalk {
		w, err := NewRandomWalk(bounds, bounds.Center(), 0, 1, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		if a.Advance(1) != b.Advance(1) {
			t.Fatalf("identical seeds diverged at step %d", i)
		}
	}
}

func TestWaypointsValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	route := []geo.Point{{}, {X: 10}}
	tests := []struct {
		name string
		cfg  WaypointsConfig
		rng  *sim.RNG
	}{
		{"one waypoint", WaypointsConfig{Route: route[:1], MinSpeed: 1, MaxSpeed: 2}, rng},
		{"zero min speed", WaypointsConfig{Route: route, MinSpeed: 0, MaxSpeed: 2}, rng},
		{"inverted range", WaypointsConfig{Route: route, MinSpeed: 3, MaxSpeed: 2}, rng},
		{"jitter out of range", WaypointsConfig{Route: route, MinSpeed: 1, MaxSpeed: 2, SpeedJitter: 1}, rng},
		{"nil rng", WaypointsConfig{Route: route, MinSpeed: 1, MaxSpeed: 2}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewWaypoints(tt.cfg, tt.rng); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestWaypointsFollowsRoute(t *testing.T) {
	route := []geo.Point{{}, {X: 10}, {X: 10, Y: 10}}
	w, err := NewWaypoints(WaypointsConfig{
		Route: route, MinSpeed: 1, MaxSpeed: 1, Shuttle: true,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.Pos() != route[0] {
		t.Fatalf("start = %v, want %v", w.Pos(), route[0])
	}
	// At exactly 1 m/s the node reaches (10,0) after 10 s.
	var p geo.Point
	for i := 0; i < 10; i++ {
		p = w.Advance(1)
	}
	if p.Dist(route[1]) > 1e-9 {
		t.Errorf("after 10 s at %v, want %v", p, route[1])
	}
	// And (10,10) after 10 more.
	for i := 0; i < 10; i++ {
		p = w.Advance(1)
	}
	if p.Dist(route[2]) > 1e-9 {
		t.Errorf("after 20 s at %v, want %v", p, route[2])
	}
}

func TestWaypointsShuttleReverses(t *testing.T) {
	route := []geo.Point{{}, {X: 5}}
	w, err := NewWaypoints(WaypointsConfig{
		Route: route, MinSpeed: 1, MaxSpeed: 1, Shuttle: true,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// 5 s out, 5 s back.
	for i := 0; i < 5; i++ {
		w.Advance(1)
	}
	if w.Pos().Dist(route[1]) > 1e-9 {
		t.Fatalf("not at far end: %v", w.Pos())
	}
	for i := 0; i < 5; i++ {
		w.Advance(1)
	}
	if w.Pos().Dist(route[0]) > 1e-9 {
		t.Errorf("did not shuttle back: %v", w.Pos())
	}
}

func TestWaypointsLoopRestarts(t *testing.T) {
	route := []geo.Point{{}, {X: 3}, {X: 3, Y: 4}} // legs 3 and 5, then 5 home (hypotenuse)
	w, err := NewWaypoints(WaypointsConfig{
		Route: route, MinSpeed: 1, MaxSpeed: 1,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Perimeter 3+4+5 = 12 s per lap at 1 m/s.
	for i := 0; i < 12; i++ {
		w.Advance(1)
	}
	if w.Pos().Dist(route[0]) > 1e-9 {
		t.Errorf("after one lap at %v, want %v", w.Pos(), route[0])
	}
}

func TestWaypointsSpeedWithinRangeAndJitter(t *testing.T) {
	route := []geo.Point{{}, {X: 10000}} // effectively one long leg
	w, err := NewWaypoints(WaypointsConfig{
		Route: route, MinSpeed: 2, MaxSpeed: 4, SpeedJitter: 0.1,
	}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	prev := w.Pos()
	for i := 0; i < 500; i++ {
		p := w.Advance(1)
		d := p.Dist(prev)
		if d < 2*0.9-1e-9 || d > 4*1.1+1e-9 {
			t.Fatalf("per-second displacement %v outside jittered [1.8, 4.4]", d)
		}
		prev = p
	}
}

func TestWaypointsLongAdvanceCrossesMultipleLegs(t *testing.T) {
	route := []geo.Point{{}, {X: 1}, {X: 2}, {X: 3}}
	w, err := NewWaypoints(WaypointsConfig{
		Route: route, MinSpeed: 1, MaxSpeed: 1, Shuttle: true,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	p := w.Advance(2.5) // crosses waypoints 1 and 2
	if math.Abs(p.X-2.5) > 1e-9 || p.Y != 0 {
		t.Errorf("Advance(2.5) = %v, want (2.5, 0)", p)
	}
}

// TestWaypointsTakesRoute: NewWaypoints takes ownership of its route
// rather than copying it, so a mover costs one allocation, itself.
func TestWaypointsTakesRoute(t *testing.T) {
	route := []geo.Point{{}, {X: 5}, {X: 5, Y: 5}}
	rng := sim.NewRNG(1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewWaypoints(WaypointsConfig{
			Route: route, MinSpeed: 1, MaxSpeed: 2, Shuttle: true,
		}, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("NewWaypoints makes %v allocations, want 1 (the mover; the route is not copied)", allocs)
	}
}
