package mobility

import (
	"math"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// TestConstructorsRejectDegenerateInputs holds each constructor to a
// named error for inputs that would hang or corrupt Advance: an infinite
// speed makes the distance budget infinite (Waypoints never returns, a
// walker jumps to a corner), a NaN compares false against every range
// bound (the node never moves), a route whose waypoints coincide has
// only zero-length legs to spend a budget on, and a NaN phase duration
// never ends. Advance is never called.
func TestConstructorsRejectDegenerateInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	route := []geo.Point{{}, {X: 10}}
	bounds := geo.NewRect(geo.Point{}, geo.Point{X: 10, Y: 10})
	waypoints := func(cfg WaypointsConfig) func() error {
		return func() error {
			_, err := NewWaypoints(cfg, sim.NewRNG(1))
			return err
		}
	}
	walk := func(lo, hi float64) func() error {
		return func() error {
			_, err := NewRandomWalk(bounds, geo.Point{}, lo, hi, sim.NewRNG(1))
			return err
		}
	}
	schedule := func(d float64) func() error {
		return func() error {
			_, err := NewSchedule([]Phase{{Name: "walk", Duration: d, Model: NewStop(geo.Point{})}})
			return err
		}
	}
	tests := []struct {
		name  string
		build func() error
		field string
	}{
		{"waypoints infinite MaxSpeed", waypoints(WaypointsConfig{Route: route, MinSpeed: 1, MaxSpeed: inf}), "MaxSpeed"},
		{"waypoints NaN MinSpeed", waypoints(WaypointsConfig{Route: route, MinSpeed: nan, MaxSpeed: 2}), "MinSpeed"},
		{"waypoints NaN MaxSpeed", waypoints(WaypointsConfig{Route: route, MinSpeed: 1, MaxSpeed: nan}), "MaxSpeed"},
		{"waypoints NaN SpeedJitter", waypoints(WaypointsConfig{Route: route, MinSpeed: 1, MaxSpeed: 2, SpeedJitter: nan}), "SpeedJitter"},
		{"waypoints all one point", waypoints(WaypointsConfig{Route: []geo.Point{{X: 3, Y: 4}, {X: 3, Y: 4}, {X: 3, Y: 4}}, MinSpeed: 1, MaxSpeed: 2}), "Route"},
		{"waypoints NaN waypoint", waypoints(WaypointsConfig{Route: []geo.Point{{}, {X: nan}}, MinSpeed: 1, MaxSpeed: 2}), "Route"},
		{"random walk infinite maxSpeed", walk(0, inf), "maxSpeed"},
		{"random walk NaN minSpeed", walk(nan, 1), "minSpeed"},
		{"schedule NaN Duration", schedule(nan), "Duration"},
		{"schedule infinite Duration", schedule(inf), "Duration"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.build()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tt.field) {
				t.Errorf("error %q does not name %s", err, tt.field)
			}
		})
	}
}
