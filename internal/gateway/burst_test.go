package gateway

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/sim"
)

func TestBurstConfigValidate(t *testing.T) {
	good := BurstConfig{PEnterOutage: 0.01, PExitOutage: 0.1, DropUp: 0.01, DropDown: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []BurstConfig{
		{PEnterOutage: -0.1, PExitOutage: 0.1},
		{PEnterOutage: 0.1, PExitOutage: 1.5},
		{DropUp: 2},
		{DropDown: -1},
		{PEnterOutage: 0.1, PExitOutage: 0}, // outages never end
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestBurstConfigValidateNamesFirstField: with several fields out of
// range, Validate names the first in declaration order, every time.
func TestBurstConfigValidateNamesFirstField(t *testing.T) {
	cfg := BurstConfig{PEnterOutage: -1, PExitOutage: 2, DropUp: -3, DropDown: 4}
	want := "gateway: PEnterOutage -1 outside [0, 1]"
	for i := 0; i < 200; i++ {
		if err := cfg.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %q", i, err, want)
		}
	}
}

func TestBurstMeanLoss(t *testing.T) {
	// No outages: the mean loss is the up-state drop.
	c := BurstConfig{DropUp: 0.05}
	if got := c.MeanLoss(); got != 0.05 {
		t.Errorf("MeanLoss = %v", got)
	}
	// Symmetric chain spends half its time down.
	c = BurstConfig{PEnterOutage: 0.1, PExitOutage: 0.1, DropUp: 0, DropDown: 1}
	if got := c.MeanLoss(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MeanLoss = %v, want 0.5", got)
	}
}

func TestNewBurstValidation(t *testing.T) {
	if _, err := NewBurstKeyed("R1", BurstConfig{DropUp: 2}, sim.NewKeyed(1)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewBurstKeyed("R1", BurstConfig{}, nil); err == nil {
		t.Error("nil keyed PRF accepted")
	}
	g, err := NewBurstKeyed("R1", BurstConfig{}, sim.NewKeyed(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Region() != "R1" {
		t.Errorf("Region = %v", g.Region())
	}
}

func TestBurstLosslessWhenDisabled(t *testing.T) {
	g, err := NewBurstKeyed("R1", BurstConfig{}, sim.NewKeyed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, ok := g.Collect(filter.LU{Node: 1, Time: float64(i)}); !ok {
			t.Fatal("disabled burst gateway dropped a sample")
		}
	}
	if g.Down() || g.Outages() != 0 {
		t.Error("outage state without outage probability")
	}
}

func TestBurstEmpiricalLossMatchesStationary(t *testing.T) {
	cfg := BurstConfig{PEnterOutage: 0.02, PExitOutage: 0.1, DropUp: 0, DropDown: 1}
	g, err := NewBurstKeyed("R1", cfg, sim.NewKeyed(9))
	if err != nil {
		t.Fatal(err)
	}
	n := 200000
	dropped := 0
	for i := 0; i < n; i++ {
		if _, ok := g.Collect(filter.LU{Node: 1, Time: float64(i)}); !ok {
			dropped++
		}
	}
	got := float64(dropped) / float64(n)
	want := cfg.MeanLoss() // 0.02/(0.12) ≈ 0.1667
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical loss = %v, want ≈%v", got, want)
	}
	if g.Outages() == 0 {
		t.Error("no outages recorded")
	}
}

func TestBurstLossesAreBursty(t *testing.T) {
	// Compare run-length statistics: drops under the burst model must be
	// far more clustered than independent Bernoulli drops of the same
	// mean rate.
	cfg := BurstConfig{PEnterOutage: 0.01, PExitOutage: 0.05, DropUp: 0, DropDown: 1}
	burst, err := NewBurstKeyed("R1", cfg, sim.NewKeyed(3))
	if err != nil {
		t.Fatal(err)
	}
	mean := cfg.MeanLoss()
	bern, err := NewKeyed("R1", mean, sim.NewKeyed(4))
	if err != nil {
		t.Fatal(err)
	}

	runLength := func(collect func(filter.LU) (filter.LU, bool)) float64 {
		var runs, dropsInRuns int
		inRun := false
		for i := 0; i < 100000; i++ {
			_, ok := collect(filter.LU{Node: 1, Time: float64(i)})
			if !ok {
				dropsInRuns++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(dropsInRuns) / float64(runs)
	}
	burstLen := runLength(burst.Collect)
	bernLen := runLength(bern.Collect)
	if burstLen < 3*bernLen {
		t.Errorf("burst mean run %v not much longer than bernoulli %v", burstLen, bernLen)
	}
}

func TestBurstSamePeriodSharesOutageState(t *testing.T) {
	// Multiple samples within one sampling period see the same chain
	// state: the chain advances with time, not with call count.
	cfg := BurstConfig{PEnterOutage: 0.5, PExitOutage: 0.5, DropUp: 0, DropDown: 1}
	g, err := NewBurstKeyed("R1", cfg, sim.NewKeyed(11))
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0; tm < 100; tm++ {
		g.Collect(filter.LU{Node: 1, Time: float64(tm)})
		state := g.Down()
		for i := 0; i < 5; i++ {
			g.Collect(filter.LU{Node: 2 + i, Time: float64(tm)})
			if g.Down() != state {
				t.Fatal("outage state changed within one sampling period")
			}
		}
	}
}
