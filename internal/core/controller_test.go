package core

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

func TestSetDTHFactor(t *testing.T) {
	a := mustADF(t, DefaultConfig())
	if err := a.SetDTHFactor(0); err == nil {
		t.Error("zero factor accepted")
	}
	if err := a.SetDTHFactor(-1); err == nil {
		t.Error("negative factor accepted")
	}
	if err := a.SetDTHFactor(2 * MaxDTHFactor); err == nil {
		t.Error("factor past MaxDTHFactor accepted")
	}
	if err := a.SetDTHFactor(2.5); err != nil {
		t.Fatal(err)
	}
	if a.Config().DTHFactor != 2.5 {
		t.Errorf("factor = %v", a.Config().DTHFactor)
	}
}

func TestControllerConfigValidate(t *testing.T) {
	if err := DefaultControllerConfig(50).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*ControllerConfig)
	}{
		{"zero target", func(c *ControllerConfig) { c.TargetRate = 0 }},
		{"zero interval", func(c *ControllerConfig) { c.Interval = 0 }},
		{"zero gain", func(c *ControllerConfig) { c.Gain = 0 }},
		{"zero min factor", func(c *ControllerConfig) { c.MinFactor = 0 }},
		{"inverted range", func(c *ControllerConfig) { c.MaxFactor = 0.05 }},
		{"max factor past the bound", func(c *ControllerConfig) { c.MaxFactor = 2 * MaxDTHFactor }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultControllerConfig(50)
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestNewControlledADFValidation(t *testing.T) {
	if _, err := NewControlledADF(nil, DefaultControllerConfig(10)); err == nil {
		t.Error("nil ADF accepted")
	}
	a := mustADF(t, DefaultConfig())
	bad := DefaultControllerConfig(10)
	bad.Gain = -1
	if _, err := NewControlledADF(a, bad); err == nil {
		t.Error("invalid config accepted")
	}
	c, err := NewControlledADF(a, DefaultControllerConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if c.ADF() != a {
		t.Error("ADF accessor mismatch")
	}
	if c.Name() == "" {
		t.Error("empty Name")
	}
	if c.Factor() != a.Config().DTHFactor {
		t.Errorf("initial Factor = %v", c.Factor())
	}
}

// driveControlled runs n synthetic nodes with varied speeds through a
// controlled ADF and returns the transmitted rate over the final window.
func driveControlled(t *testing.T, target float64, nodes, seconds int) (rate float64, c *ControlledADF) {
	t.Helper()
	cfg := DefaultConfig()
	a := mustADF(t, cfg)
	c, err := NewControlledADF(a, DefaultControllerConfig(target))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(31)
	type walker struct {
		p       geo.Point
		heading float64
		min     float64
		max     float64
	}
	ws := make([]walker, nodes)
	for i := range ws {
		// Wide per-node speed ranges keep the filtering plant smooth in
		// the DTH factor (narrow ranges make it a staircase).
		ws[i] = walker{
			heading: rng.Heading(),
			min:     0.5 + float64(i%5),
			max:     3.0 + float64(i%5),
		}
	}
	const tail = 60 // measure the steady-state rate over the final minute
	sent := 0
	for tick := 0; tick < seconds; tick++ {
		tm := float64(tick)
		for i := range ws {
			speed := rng.Uniform(ws[i].min, ws[i].max)
			ws[i].p = ws[i].p.Add(geo.FromHeading(ws[i].heading, speed))
			if c.Offer(filter.LU{Node: i, Time: tm, Pos: ws[i].p}).Transmit && tick >= seconds-tail {
				sent++
			}
		}
	}
	return float64(sent) / tail, c
}

func TestControlledADFConvergesToTarget(t *testing.T) {
	const target = 20.0
	rate, c := driveControlled(t, target, 60, 600)
	if math.Abs(rate-target) > 0.35*target {
		t.Errorf("steady-state rate = %.1f LU/s, want ≈%v (factor %.2f)", rate, target, c.Factor())
	}
}

func TestControlledADFFactorRespondsToBudget(t *testing.T) {
	// A tight budget forces a larger DTH factor than a loose one.
	_, tight := driveControlled(t, 10, 60, 400)
	_, loose := driveControlled(t, 45, 60, 400)
	if tight.Factor() <= loose.Factor() {
		t.Errorf("tight budget factor %.2f not above loose %.2f", tight.Factor(), loose.Factor())
	}
}

func TestControlledADFFactorStaysClamped(t *testing.T) {
	// Under an unreachable budget the factor rises above its initial
	// value (filtering harder) but never escapes its clamp range, and the
	// loop never slams across the range in one step.
	cfg := DefaultControllerConfig(0.001)
	a := mustADF(t, DefaultConfig())
	c, err := NewControlledADF(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := c.Factor()
	rng := sim.NewRNG(5)
	p := geo.Point{}
	maxSeen := 0.0
	prev := initial
	for tick := 0; tick < 500; tick++ {
		p = p.Add(geo.FromHeading(rng.Heading(), rng.Uniform(0.5, 3)))
		c.Offer(filter.LU{Node: 1, Time: float64(tick), Pos: p})
		f := c.Factor()
		if f < cfg.MinFactor || f > cfg.MaxFactor {
			t.Fatalf("factor %v escaped [%v, %v]", f, cfg.MinFactor, cfg.MaxFactor)
		}
		// The clamped ratio bounds any single step to 4^Gain.
		if f > prev*1.75 || f < prev/1.75 {
			t.Fatalf("factor jumped %v -> %v in one tick", prev, f)
		}
		prev = f
		if f > maxSeen {
			maxSeen = f
		}
	}
	if maxSeen <= initial {
		t.Errorf("factor never rose above initial %v under an unreachable budget", initial)
	}
}

func TestControlledADFForget(t *testing.T) {
	a := mustADF(t, DefaultConfig())
	c, err := NewControlledADF(a, DefaultControllerConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	c.Offer(filter.LU{Node: 1, Time: 0, Pos: geo.Point{}})
	c.Forget(1)
	if a.NodeCount() != 0 {
		t.Error("Forget did not propagate")
	}
}
