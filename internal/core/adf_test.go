package core

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

func mustADF(t *testing.T, cfg Config) *ADF {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(*Config) {}, false},
		{"zero factor", func(c *Config) { c.DTHFactor = 0 }, true},
		{"NaN factor", func(c *Config) { c.DTHFactor = math.NaN() }, true},
		{"largest factor", func(c *Config) { c.DTHFactor = MaxDTHFactor }, false},
		{"factor past the bound", func(c *Config) { c.DTHFactor = 1e308 }, true},
		{"zero period", func(c *Config) { c.SamplePeriod = 0 }, true},
		{"negative min dth", func(c *Config) { c.MinDTH = -1 }, true},
		{"negative recluster", func(c *Config) { c.ReclusterInterval = -1 }, true},
		{"bad classifier", func(c *Config) { c.Classifier.WindowSize = 0 }, true},
		{"bad cluster", func(c *Config) { c.Cluster.Alpha = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			_, err := New(cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestADFName(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DTHFactor = 0.75
	a := mustADF(t, cfg)
	if got := a.Name(); got != "adf(0.75av)" {
		t.Errorf("Name = %q", got)
	}
	if a.Config().DTHFactor != 0.75 {
		t.Error("Config accessor mismatch")
	}
}

// offerLinear drives node through steps ticks of straight-line motion at
// the given speed and returns the number of transmitted LUs.
func offerLinear(a *ADF, node, steps int, speed float64) int {
	sent := 0
	p := geo.Point{}
	for i := 0; i < steps; i++ {
		if a.Offer(filter.LU{Node: node, Time: float64(i), Pos: p}).Transmit {
			sent++
		}
		p = p.Add(geo.Vec{DX: speed})
	}
	return sent
}

func TestADFWarmupTransmitsEverything(t *testing.T) {
	a := mustADF(t, DefaultConfig())
	w := DefaultConfig().Classifier.WindowSize
	p := geo.Point{}
	for i := 0; i < w-1; i++ {
		d := a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: p})
		if !d.Transmit {
			t.Fatalf("warmup LU %d filtered", i)
		}
		p = p.Add(geo.Vec{DX: 1})
	}
	if a.PatternOf(1) != PatternUnknown {
		t.Error("pattern known before window full")
	}
}

func TestADFFiltersAfterClustering(t *testing.T) {
	// At factor 1.25 a constant-speed node's DTH exceeds its per-tick
	// displacement, so roughly every second LU is filtered once the
	// cluster forms. (At factor 1.0 a perfectly constant mover sits
	// exactly on its threshold and is never filtered — the paper's
	// reductions at 1.0av come from speed spread within clusters and
	// non-linear motion.)
	cfg := DefaultConfig()
	cfg.DTHFactor = 1.25
	a := mustADF(t, cfg)
	steps := 100
	sent := offerLinear(a, 1, steps, 1.0)
	if sent >= steps {
		t.Fatalf("ADF never filtered: %d/%d transmitted", sent, steps)
	}
	if a.PatternOf(1) != PatternLinear {
		t.Errorf("pattern = %v, want LMS", a.PatternOf(1))
	}
	if a.ClusterCount() != 1 {
		t.Errorf("clusters = %d, want 1", a.ClusterCount())
	}
}

func TestADFStopNodeNotClustered(t *testing.T) {
	a := mustADF(t, DefaultConfig())
	for i := 0; i < 30; i++ {
		a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: geo.Point{X: 4, Y: 4}})
	}
	if a.PatternOf(1) != PatternStop {
		t.Fatalf("pattern = %v, want SS", a.PatternOf(1))
	}
	if a.ClusterCount() != 0 {
		t.Errorf("stop node clustered: %d clusters", a.ClusterCount())
	}
	// A stationary node transmits only its first LU.
	sentAfter := 0
	for i := 30; i < 60; i++ {
		if a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: geo.Point{X: 4, Y: 4}}).Transmit {
			sentAfter++
		}
	}
	if sentAfter != 0 {
		t.Errorf("stationary node transmitted %d LUs after warmup", sentAfter)
	}
}

func TestADFHigherFactorFiltersMore(t *testing.T) {
	counts := map[float64]int{}
	for _, factor := range []float64{0.75, 1.0, 1.25} {
		cfg := DefaultConfig()
		cfg.DTHFactor = factor
		a := mustADF(t, cfg)
		// A small population with mixed speeds, on straight lines.
		sent := 0
		rng := sim.NewRNG(5)
		type st struct {
			p geo.Point
			v geo.Vec
		}
		nodes := make([]st, 12)
		for i := range nodes {
			nodes[i].v = geo.FromHeading(rng.Heading(), rng.Uniform(0.5, 6))
		}
		for tick := 0; tick < 200; tick++ {
			for i := range nodes {
				if a.Offer(filter.LU{Node: i, Time: float64(tick), Pos: nodes[i].p}).Transmit {
					sent++
				}
				nodes[i].p = nodes[i].p.Add(nodes[i].v)
			}
		}
		counts[factor] = sent
	}
	if !(counts[1.25] < counts[1.0] && counts[1.0] < counts[0.75]) {
		t.Errorf("transmission counts not monotone in DTH factor: %v", counts)
	}
}

func TestADFPerClusterThreshold(t *testing.T) {
	// Two groups: walkers at ~1 m/s and vehicles at ~8 m/s. With factor 1
	// each node's threshold tracks its own cluster's mean, so walkers get
	// ~1 m and vehicles ~8 m.
	cfg := DefaultConfig()
	cfg.Cluster.HeadingWeight = 0 // cluster purely on speed for this test
	a := mustADF(t, cfg)
	speeds := map[int]float64{1: 0.9, 2: 1.0, 3: 1.1, 4: 7.8, 5: 8.0, 6: 8.2}
	positions := map[int]geo.Point{}
	var walkerDTH, vehicleDTH float64
	for tick := 0; tick < 60; tick++ {
		for id, v := range speeds {
			d := a.Offer(filter.LU{Node: id, Time: float64(tick), Pos: positions[id]})
			positions[id] = positions[id].Add(geo.Vec{DX: v})
			if tick == 59 {
				if id == 1 {
					walkerDTH = d.Threshold
				}
				if id == 4 {
					vehicleDTH = d.Threshold
				}
			}
		}
	}
	if a.ClusterCount() != 2 {
		t.Fatalf("clusters = %d, want 2 (stats: %+v)", a.ClusterCount(), a.Clusters())
	}
	if math.Abs(walkerDTH-1.0) > 0.2 {
		t.Errorf("walker DTH = %v, want ~1.0", walkerDTH)
	}
	if math.Abs(vehicleDTH-8.0) > 0.5 {
		t.Errorf("vehicle DTH = %v, want ~8.0", vehicleDTH)
	}
}

func TestADFTransmitInvariantAnchored(t *testing.T) {
	// Anchored semantics: every transmitted LU (except a node's first)
	// moved at least its reported threshold from the previous transmitted
	// position.
	cfg := DefaultConfig()
	cfg.Semantics = filter.Anchored
	a := mustADF(t, cfg)
	rng := sim.NewRNG(11)
	p := geo.Point{}
	var lastSent geo.Point
	first := true
	for i := 0; i < 300; i++ {
		p = p.Add(geo.FromHeading(rng.Heading(), rng.Uniform(0, 2)))
		d := a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: p})
		if d.Transmit {
			if !first && p.Dist(lastSent) < d.Threshold-1e-9 {
				t.Fatalf("tick %d: transmitted at %.3f < threshold %.3f", i, p.Dist(lastSent), d.Threshold)
			}
			lastSent = p
			first = false
		}
	}
}

func TestADFTransmitInvariantPerStep(t *testing.T) {
	// Per-step semantics: every transmitted LU's reported per-step
	// distance meets its threshold, and a filtered LU's does not.
	a := mustADF(t, DefaultConfig()) // PerStep is the default
	rng := sim.NewRNG(13)
	p := geo.Point{}
	for i := 0; i < 300; i++ {
		p = p.Add(geo.FromHeading(rng.Heading(), rng.Uniform(0, 2)))
		d := a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: p})
		if i == 0 {
			continue
		}
		if d.Transmit && d.Distance < d.Threshold-1e-9 {
			t.Fatalf("tick %d: transmitted at %.3f < threshold %.3f", i, d.Distance, d.Threshold)
		}
		if !d.Transmit && d.Distance >= d.Threshold {
			t.Fatalf("tick %d: filtered at %.3f >= threshold %.3f", i, d.Distance, d.Threshold)
		}
	}
}

func TestADFPerStepStarvesSubThresholdMover(t *testing.T) {
	// Under per-step semantics a node whose per-tick movement stays below
	// its DTH never transmits after the warm-up — the behaviour that
	// produces the paper's large location errors and makes the Location
	// Estimator worthwhile.
	cfg := DefaultConfig()
	cfg.DTHFactor = 1.25
	a := mustADF(t, cfg)
	w := cfg.Classifier.WindowSize
	sent := 0
	p := geo.Point{}
	for i := 0; i < 200; i++ {
		if a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: p}).Transmit && i >= w {
			sent++
		}
		p = p.Add(geo.Vec{DX: 1.0}) // constant 1 m/s, DTH settles at 1.25
	}
	if sent != 0 {
		t.Errorf("sub-threshold mover transmitted %d LUs after warm-up", sent)
	}
}

func TestConfigSemanticsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Semantics = filter.Semantics(99)
	if _, err := New(cfg); err == nil {
		t.Error("invalid semantics accepted")
	}
}

func TestADFMinDTHFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDTH = 2.0
	a := mustADF(t, cfg)
	// Very slow cluster: mean speed 0.2 → raw DTH 0.2 < floor 2.0.
	var lastThreshold float64
	p := geo.Point{}
	for i := 0; i < 40; i++ {
		d := a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: p})
		p = p.Add(geo.Vec{DX: 0.2})
		lastThreshold = d.Threshold
	}
	if lastThreshold != 2.0 {
		t.Errorf("threshold = %v, want floor 2.0", lastThreshold)
	}
}

func TestADFForget(t *testing.T) {
	a := mustADF(t, DefaultConfig())
	offerLinear(a, 1, 50, 1.0)
	if a.NodeCount() != 1 {
		t.Fatalf("NodeCount = %d", a.NodeCount())
	}
	a.Forget(1)
	if a.NodeCount() != 0 || a.ClusterCount() != 0 {
		t.Errorf("Forget left state: nodes=%d clusters=%d", a.NodeCount(), a.ClusterCount())
	}
	if a.PatternOf(1) != PatternUnknown {
		t.Error("PatternOf after Forget != unknown")
	}
}

func TestADFReclusterAdaptsToSpeedChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReclusterInterval = 5
	cfg.Cluster.HeadingWeight = 0
	a := mustADF(t, cfg)
	p := geo.Point{}
	// Walk for 40 ticks, then drive at 9 m/s for 40 ticks.
	var thresholds []float64
	for i := 0; i < 80; i++ {
		speed := 1.0
		if i >= 40 {
			speed = 9.0
		}
		d := a.Offer(filter.LU{Node: 1, Time: float64(i), Pos: p})
		p = p.Add(geo.Vec{DX: speed})
		thresholds = append(thresholds, d.Threshold)
	}
	if thresholds[39] > 2 {
		t.Errorf("walking threshold = %v, want ~1", thresholds[39])
	}
	if thresholds[79] < 5 {
		t.Errorf("driving threshold = %v, want ~9", thresholds[79])
	}
}

func TestADFClustersStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.HeadingWeight = 0
	a := mustADF(t, cfg)
	offerLinear(a, 1, 30, 1.0)
	stats := a.Clusters()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	s := stats[0]
	if s.Size != 1 || math.Abs(s.MeanSpeed-1.0) > 0.01 {
		t.Errorf("stats = %+v", s)
	}
	want := s.MeanSpeed * cfg.DTHFactor * cfg.SamplePeriod
	if want < cfg.MinDTH {
		want = cfg.MinDTH
	}
	if math.Abs(s.DTH-want) > 1e-9 {
		t.Errorf("DTH = %v, want %v", s.DTH, want)
	}
}

func TestADFImplementsFilter(t *testing.T) {
	var _ filter.Filter = mustADF(t, DefaultConfig())
}

func TestADFVersusGeneralDFOnMixedSpeeds(t *testing.T) {
	// The paper's section 3.2.2 claim: a single global DTH is "unsuitable"
	// on a mixed-speed population — too small for fast nodes (so they are
	// never filtered) and too large for slow nodes (so their location
	// error balloons). With matched DTH factors the ADF must (a) filter
	// the fast subset where the general DF cannot, and (b) keep the slow
	// subset's worst-case location staleness far below the general DF's.
	rng := sim.NewRNG(23)
	const n, ticks = 20, 300
	nodes := make([]motion, n)
	var speedSum float64
	for i := range nodes {
		speed := rng.Uniform(0.2, 1.0)
		if i < n/2 {
			speed = rng.Uniform(4, 10)
		}
		speedSum += speed
		nodes[i].v = geo.FromHeading(rng.Heading(), speed)
	}
	av := speedSum / n

	cfg := DefaultConfig()
	cfg.DTHFactor = 1.25
	cfg.Semantics = filter.Anchored
	cfg.Cluster.HeadingWeight = 0
	adf := mustADF(t, cfg)
	gdf, err := filter.NewGeneralDF(av * cfg.DTHFactor * cfg.SamplePeriod)
	if err != nil {
		t.Fatal(err)
	}

	run := func(f filter.Filter) (fastSent int, slowMaxErr float64) {
		states := clone(nodes)
		lastSent := make([]geo.Point, n)
		for tick := 0; tick < ticks; tick++ {
			for i := range states {
				lu := filter.LU{Node: i, Time: float64(tick), Pos: states[i].p}
				if f.Offer(lu).Transmit {
					if i < n/2 {
						fastSent++
					}
					lastSent[i] = states[i].p
				} else if i >= n/2 {
					if e := states[i].p.Dist(lastSent[i]); e > slowMaxErr {
						slowMaxErr = e
					}
				}
				states[i].p = states[i].p.Add(states[i].v)
			}
		}
		return fastSent, slowMaxErr
	}
	adfFast, adfSlowErr := run(adf)
	gdfFast, gdfSlowErr := run(gdf)

	if adfFast >= gdfFast {
		t.Errorf("fast subset: ADF sent %d, general DF sent %d; want ADF < general", adfFast, gdfFast)
	}
	if adfSlowErr >= gdfSlowErr/2 {
		t.Errorf("slow subset staleness: ADF %.2f m, general DF %.2f m; want ADF much lower", adfSlowErr, gdfSlowErr)
	}
}

type motion struct {
	p geo.Point
	v geo.Vec
}

func clone(in []motion) []motion {
	out := make([]motion, len(in))
	copy(out, in)
	return out
}

// TestADFReclusterOrderIgnoresIDWindow pins the rebuild order for node
// IDs outside the dense window: reclustering must visit live nodes in
// ascending ID order whatever their magnitude or sign, so an
// order-preserving relabelling of the population (negative IDs, a dense
// middle, IDs far past the dense window) clusters exactly like IDs
// 0..n-1, run after run.
func TestADFReclusterOrderIgnoresIDWindow(t *testing.T) {
	rng := sim.NewRNG(41)
	const n, ticks = 40, 60
	nodes := make([]motion, n)
	for i := range nodes {
		nodes[i].v = geo.FromHeading(rng.Heading(), rng.Uniform(0.3, 9))
	}
	relabel := func(k int) int {
		switch {
		case k < 10:
			return -(1 << 40) + 7*k
		case k < 30:
			return k
		default:
			return 1<<40 + k
		}
	}
	cfg := DefaultConfig()
	cfg.ReclusterInterval = 5
	run := func(id func(int) int) []ClusterStats {
		a := mustADF(t, cfg)
		states := clone(nodes)
		var out []ClusterStats
		for tick := 0; tick < ticks; tick++ {
			for i := range states {
				a.Offer(filter.LU{Node: id(i), Time: float64(tick), Pos: states[i].p})
				states[i].p = states[i].p.Add(states[i].v)
			}
			out = append(out, a.Clusters()...)
		}
		return out
	}
	want := run(func(k int) int { return k })
	for rep := 0; rep < 10; rep++ {
		got := run(relabel)
		if len(got) != len(want) {
			t.Fatalf("rep %d: %d cluster stats, want %d", rep, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.Size != w.Size || !geo.SameBits(g.MeanSpeed, w.MeanSpeed) {
				t.Fatalf("rep %d: stat %d = %+v, want %+v", rep, i, g, w)
			}
		}
	}
}

// TestADFBirthAllocs pins the cost of a node's first Offer: after
// Preallocate has sized the slot store, the classifier rings and the
// view's state, a birth allocates nothing — through the filter New
// built and through a factor view of its front alike.
func TestADFBirthAllocs(t *testing.T) {
	const births = 1000
	a := mustADF(t, DefaultConfig())
	v := a.At(1.25).(*ADF)
	a.Preallocate(births + 1)
	v.Preallocate(births + 1)
	node := 0
	allocs := testing.AllocsPerRun(births, func() {
		lu := filter.LU{Node: node, Time: 1, Pos: geo.Point{X: float64(node)}}
		a.Offer(lu)
		v.Offer(lu)
		node++
	})
	if allocs != 0 {
		t.Fatalf("allocs per ADF birth = %v, want 0", allocs)
	}
}
