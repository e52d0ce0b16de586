package broker

import (
	"testing"

	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sanitize"
)

func brownFactory(t *testing.T) estimate.Factory {
	t.Helper()
	return func() estimate.PositionEstimator {
		le, err := estimate.NewBrownLE(0.5)
		if err != nil {
			t.Fatal(err)
		}
		return le
	}
}

func TestReceiveAndLocation(t *testing.T) {
	b := New(nil)
	if _, ok := b.Location(1); ok {
		t.Error("Location before any report")
	}
	b.ReceiveLU(1, 10, geo.Point{X: 5})
	e, ok := b.Location(1)
	if !ok {
		t.Fatal("Location not found after report")
	}
	if e.Pos != (geo.Point{X: 5}) || e.Time != 10 || e.Estimated {
		t.Errorf("entry = %+v", e)
	}
	if b.NodeCount() != 1 {
		t.Errorf("NodeCount = %d", b.NodeCount())
	}
	if b.ReceivedLUs() != 1 {
		t.Errorf("ReceivedLUs = %d", b.ReceivedLUs())
	}
}

func TestMissLUWithoutLEKeepsLastReport(t *testing.T) {
	b := New(nil) // nil factory = "without LE" baseline
	b.ReceiveLU(1, 0, geo.Point{X: 5})
	e, err := b.MissLU(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Without an estimator the last report serves the miss; the refresh
	// is labelled estimated but stays at the last reported point.
	if e.Pos != (geo.Point{X: 5}) {
		t.Errorf("believed = %v, want last report", e.Pos)
	}
}

func TestMissLUWithBrownExtrapolates(t *testing.T) {
	b := New(brownFactory(t))
	// Constant eastward 2 m/s, reported every second for 6 s.
	for i := 0; i <= 6; i++ {
		b.ReceiveLU(1, float64(i), geo.Point{X: 2 * float64(i)})
	}
	e, err := b.MissLU(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Estimated {
		t.Error("refresh not marked estimated")
	}
	want := geo.Point{X: 18}
	if e.Pos.Dist(want) > 0.2 {
		t.Errorf("estimated = %v, want ~%v", e.Pos, want)
	}
	if b.EstimatedLUs() != 1 {
		t.Errorf("EstimatedLUs = %d", b.EstimatedLUs())
	}
	// The believed entry is refreshed in the DB too.
	got, _ := b.Location(1)
	if got != e {
		t.Errorf("Location = %+v, want %+v", got, e)
	}
}

func TestMissLUBeforeEstimatorReady(t *testing.T) {
	b := New(brownFactory(t))
	b.ReceiveLU(1, 0, geo.Point{X: 5})
	e, err := b.MissLU(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimated {
		t.Error("single-report node marked estimated")
	}
	if e.Pos != (geo.Point{X: 5}) {
		t.Errorf("believed = %v", e.Pos)
	}
}

func TestMissLUUnknownNode(t *testing.T) {
	b := New(nil)
	if _, err := b.MissLU(42, 1); err == nil {
		t.Error("MissLU for unknown node did not error")
	}
}

func TestLocationsSnapshot(t *testing.T) {
	b := New(nil)
	b.ReceiveLU(3, 1, geo.Point{X: 3})
	b.ReceiveLU(1, 1, geo.Point{X: 1})
	b.ReceiveLU(2, 1, geo.Point{X: 2})
	locs := b.Locations()
	if len(locs) != 3 {
		t.Fatalf("Locations = %d entries", len(locs))
	}
	for i, want := range []int{1, 2, 3} {
		if locs[i].Node != want {
			t.Errorf("Locations[%d].Node = %d, want %d (order)", i, locs[i].Node, want)
		}
		if locs[i].Pos.X != float64(want) {
			t.Errorf("Locations[%d].Pos = %v", i, locs[i].Pos)
		}
	}
}

func TestForget(t *testing.T) {
	b := New(nil)
	b.ReceiveLU(1, 1, geo.Point{})
	b.Forget(1)
	if _, ok := b.Location(1); ok {
		t.Error("Location after Forget")
	}
	if b.NodeCount() != 0 {
		t.Errorf("NodeCount = %d", b.NodeCount())
	}
}

// TestForgetThenRejoinMatchesFresh forgets a node the LE has learned
// and lets it rejoin: while it is gone every reader finds it absent,
// and once back the broker's beliefs and its state digest are bit for
// bit those of a broker that never saw the node's first life.
func TestForgetThenRejoinMatchesFresh(t *testing.T) {
	b, fresh := New(brownFactory(t)), New(brownFactory(t))
	b.ReceiveLU(2, 0, geo.Point{Y: 9})
	fresh.ReceiveLU(2, 0, geo.Point{Y: 9})
	for i := 0; i <= 6; i++ {
		b.ReceiveLU(1, float64(i), geo.Point{X: 2 * float64(i)})
	}
	b.Forget(1)
	b.Forget(1) // already gone: no effect
	if _, ok := b.Location(1); ok {
		t.Error("Location after Forget")
	}
	if _, err := b.MissLU(1, 7); err == nil {
		t.Error("MissLU after Forget did not error")
	}
	if _, ok := b.Step(1, 7, geo.Point{}, false); ok {
		t.Error("Step without a report after Forget found the node")
	}
	if locs := b.Locations(); len(locs) != 1 || locs[0].Node != 2 || b.NodeCount() != 1 {
		t.Errorf("after Forget: Locations %v, NodeCount %d; want node 2 only", locs, b.NodeCount())
	}
	digest := func(b *Broker) uint64 {
		d := sanitize.NewDigest()
		b.DigestState(&d)
		return d.Sum()
	}
	// The counters differ by the first life's LUs: fresh receives as
	// many for a stand-in node, which it then forgets.
	for i := 0; i <= 6; i++ {
		fresh.Step(3, float64(i), geo.Point{}, true)
	}
	fresh.Forget(3)
	if digest(b) != digest(fresh) {
		t.Error("state digest after Forget differs from a broker that never saw the node")
	}
	for i := 10; i <= 16; i++ {
		p := geo.Point{Y: -3 * float64(i)}
		eb, _ := b.Step(1, float64(i), p, i%3 != 0)
		ef, _ := fresh.Step(1, float64(i), p, i%3 != 0)
		if eb != ef {
			t.Fatalf("t=%d: rejoined node believed %+v, fresh broker %+v", i, eb, ef)
		}
	}
	if digest(b) != digest(fresh) {
		t.Error("state digest after the rejoin differs from a fresh broker's")
	}
}

func TestEstimatorIsolationBetweenNodes(t *testing.T) {
	b := New(brownFactory(t))
	// Node 1 moves east, node 2 moves north; forecasts must not mix.
	for i := 0; i <= 6; i++ {
		b.ReceiveLU(1, float64(i), geo.Point{X: float64(i)})
		b.ReceiveLU(2, float64(i), geo.Point{Y: float64(i)})
	}
	e1, err := b.MissLU(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.MissLU(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Pos.Y > 0.5 || e1.Pos.X < 7 {
		t.Errorf("node 1 forecast contaminated: %v", e1.Pos)
	}
	if e2.Pos.X > 0.5 || e2.Pos.Y < 7 {
		t.Errorf("node 2 forecast contaminated: %v", e2.Pos)
	}
}
