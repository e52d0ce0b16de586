package gateway

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

func TestNewValidation(t *testing.T) {
	keyed := sim.NewKeyed(1)
	if _, err := NewKeyed("R1", -0.1, keyed); err == nil {
		t.Error("negative dropProb accepted")
	}
	if _, err := NewKeyed("R1", 1.0, keyed); err == nil {
		t.Error("dropProb = 1 accepted")
	}
	if _, err := NewKeyed("R1", 0.1, nil); err == nil {
		t.Error("nil keyed PRF accepted")
	}
	g, err := NewKeyed("R1", 0.1, keyed)
	if err != nil {
		t.Fatal(err)
	}
	if g.Region() != "R1" {
		t.Errorf("Region = %v", g.Region())
	}
}

func TestCollectNoDrop(t *testing.T) {
	g, err := NewKeyed("R1", 0, sim.NewKeyed(1))
	if err != nil {
		t.Fatal(err)
	}
	lu := filter.LU{Node: 5, Time: 3, Pos: geo.Point{X: 1}}
	for i := 0; i < 100; i++ {
		got, ok := g.Collect(lu)
		if !ok || got != lu {
			t.Fatalf("lossless gateway dropped or mangled an LU")
		}
	}
	if g.Received() != 100 || g.Dropped() != 0 {
		t.Errorf("counters = %d/%d", g.Received(), g.Dropped())
	}
}

func TestCollectDropRate(t *testing.T) {
	g, err := NewKeyed("R1", 0.3, sim.NewKeyed(2))
	if err != nil {
		t.Fatal(err)
	}
	n := 20000
	dropped := 0
	for i := 0; i < n; i++ {
		if _, ok := g.Collect(filter.LU{Node: 1, Time: float64(i)}); !ok {
			dropped++
		}
	}
	rate := float64(dropped) / float64(n)
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("empirical drop rate = %v, want ~0.3", rate)
	}
	if g.Dropped() != uint64(dropped) || g.Received() != uint64(n) {
		t.Errorf("counters = %d/%d", g.Received(), g.Dropped())
	}
}

func TestNetworkCoversAllRegions(t *testing.T) {
	c := campus.New()
	n, err := NewNetwork(c, 0.05, sim.NewStreams(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Regions() {
		g, err := n.Gateway(r.ID)
		if err != nil {
			t.Errorf("no gateway for %s: %v", r.ID, err)
			continue
		}
		if g.Region() != r.ID {
			t.Errorf("gateway region = %v, want %v", g.Region(), r.ID)
		}
	}
	if _, err := n.Gateway("NOPE"); err == nil {
		t.Error("unknown region did not error")
	}
}

func TestNetworkCollectRoutes(t *testing.T) {
	c := campus.New()
	n, err := NewNetwork(c, 0, sim.NewStreams(4))
	if err != nil {
		t.Fatal(err)
	}
	lu := filter.LU{Node: 9, Time: 1}
	got, ok, err := n.Collect("B4", lu)
	if err != nil || !ok || got != lu {
		t.Fatalf("Collect = (%+v, %v, %v)", got, ok, err)
	}
	if _, _, err := n.Collect("NOPE", lu); err == nil {
		t.Error("unknown region did not error")
	}
	g, _ := n.Gateway("B4")
	if g.Received() != 1 {
		t.Errorf("B4 gateway received = %d", g.Received())
	}
}

func TestNetworkStatsSorted(t *testing.T) {
	c := campus.New()
	n, err := NewNetwork(c, 0, sim.NewStreams(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Collect("R3", filter.LU{}); err != nil {
		t.Fatal(err)
	}
	stats := n.Stats()
	if len(stats) != 11 {
		t.Fatalf("stats = %d entries, want 11", len(stats))
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Region >= stats[i].Region {
			t.Fatalf("stats not sorted: %v before %v", stats[i-1].Region, stats[i].Region)
		}
	}
	for _, s := range stats {
		if s.Region == "R3" && s.Received != 1 {
			t.Errorf("R3 received = %d, want 1", s.Received)
		}
	}
}

func TestNetworkDeterministicDrops(t *testing.T) {
	c := campus.New()
	mk := func() []bool {
		n, err := NewNetwork(c, 0.5, sim.NewStreams(6))
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 50; i++ {
			_, ok, err := n.Collect("R1", filter.LU{Node: 1, Time: float64(i)})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ok)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop sequence diverged at %d", i)
		}
	}
}
