package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/estimate"
	"github.com/mobilegrid/adf/internal/geo"
)

// shortConfig keeps integration tests fast: a few hundred simulated
// seconds is enough for clustering, filtering and estimation to settle.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 300
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(*Config) {}, false},
		{"zero duration", func(c *Config) { c.Duration = 0 }, true},
		{"zero period", func(c *Config) { c.SamplePeriod = 0 }, true},
		{"negative drop", func(c *Config) { c.DropProb = -0.1 }, true},
		{"drop = 1", func(c *Config) { c.DropProb = 1 }, true},
		{"no factors", func(c *Config) { c.DTHFactors = nil }, true},
		{"negative factor", func(c *Config) { c.DTHFactors = []float64{-1} }, true},
		{"largest factor", func(c *Config) { c.DTHFactors = []float64{core.MaxDTHFactor} }, false},
		{"factor past the bound", func(c *Config) { c.DTHFactors = []float64{1, 1e308} }, true},
		{"bad smoothing", func(c *Config) { c.Smoothing = 1.5 }, true},
		{"unknown estimator", func(c *Config) { c.Estimator = "kalman" }, true},
		{"empty estimator ok", func(c *Config) { c.Estimator = "" }, false},
		{"bad adf", func(c *Config) { c.ADF.MinDTH = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestConfigValidateRejectsNonFinite: NaN fails every ordered
// comparison and ±Inf passes the one-sided ones, so each float field is
// checked for finiteness and the error names the field.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"NaN duration", func(c *Config) { c.Duration = nan }, "Duration"},
		{"+Inf duration", func(c *Config) { c.Duration = inf }, "Duration"},
		{"NaN period", func(c *Config) { c.SamplePeriod = nan }, "SamplePeriod"},
		{"+Inf period", func(c *Config) { c.SamplePeriod = inf }, "SamplePeriod"},
		{"NaN drop", func(c *Config) { c.DropProb = nan }, "DropProb"},
		{"-Inf drop", func(c *Config) { c.DropProb = -inf }, "DropProb"},
		{"NaN smoothing", func(c *Config) { c.Smoothing = nan }, "Smoothing"},
		{"NaN factor", func(c *Config) { c.DTHFactors = []float64{1, nan} }, "DTHFactors"},
		{"+Inf factor", func(c *Config) { c.DTHFactors = []float64{inf} }, "DTHFactors"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate() accepted a non-finite value")
			}
			if !strings.Contains(err.Error(), tt.field) {
				t.Errorf("Validate() = %v, want the error to name %s", err, tt.field)
			}
		})
	}
}

func TestPopulationMeanSpeed(t *testing.T) {
	specs := campus.Table1Population(campus.New())
	got := PopulationMeanSpeed(specs)
	// 25 humans at (1+4)/2 + 25 vehicles at (4+10)/2 + 30 SS at 0 +
	// 30 RMS at 0.5 + 30 LMS at 1.0, over 140 nodes.
	want := (25*2.5 + 25*7 + 30*0 + 30*0.5 + 30*1.0) / 140
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("PopulationMeanSpeed = %v, want %v", got, want)
	}
	if PopulationMeanSpeed(nil) != 0 {
		t.Error("empty population mean != 0")
	}
}

// TestEstimatorNamesAllConstructible builds three estimators of every
// kind from blocks of two, so the third starts a fresh block: each is
// its own fresh estimator, untouched by its neighbours' observations.
func TestEstimatorNamesAllConstructible(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range EstimatorNames() {
		f, err := cfg.estimatorFactory(name, 2)
		if err != nil {
			t.Errorf("estimatorFactory(%q): %v", name, err)
			continue
		}
		a, b, c := f(), f(), f()
		if a == nil || b == nil || c == nil {
			t.Errorf("factory %q built nil estimator", name)
			continue
		}
		for i, p := range []geo.Point{{X: 0}, {X: 1}, {X: 3}} {
			a.Observe(float64(i+1), p)
		}
		for _, e := range []estimate.PositionEstimator{b, c} {
			if e.Ready() || e.Predict(5) != (geo.Point{}) {
				t.Errorf("factory %q: a neighbour's observations reached a fresh estimator", name)
			}
		}
	}
}

func TestCampaignBasicShape(t *testing.T) {
	cfg := shortConfig()
	res, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ideal == nil || len(res.ADF) != len(cfg.DTHFactors) {
		t.Fatalf("results shape: ideal=%v adf=%d", res.Ideal != nil, len(res.ADF))
	}

	// The ideal baseline transmits every connected sample: with 140 nodes
	// and a 3.5% drop probability the mean rate must be close to 135.
	mean := res.Ideal.MeanLUsPerSecond()
	if mean < 130 || mean > 140 {
		t.Errorf("ideal mean LU/s = %v, want ≈135", mean)
	}

	// Every ADF run reduces traffic, monotonically in the DTH factor.
	prev := res.Ideal.TotalLUs()
	for i, run := range res.ADF {
		if run.TotalLUs() >= prev {
			t.Errorf("run %d (%s): LUs %v not below previous %v", i, run.Name, run.TotalLUs(), prev)
		}
		prev = run.TotalLUs()
		if run.FinalClusters == 0 {
			t.Errorf("%s: no clusters formed", run.Name)
		}
		if run.Factor != cfg.DTHFactors[i] {
			t.Errorf("run %d factor = %v, want %v", i, run.Factor, cfg.DTHFactors[i])
		}
	}
}

// TestCampaignDeterministic runs one config twice: each Run simulates
// afresh, and the two campaigns agree in every recorded field.
func TestCampaignDeterministic(t *testing.T) {
	cfg := shortConfig()
	cfg.DTHFactors = []float64{1.0}
	a, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Ideal == b.Ideal || a.ADF[0] == b.ADF[0] {
		t.Fatal("the second Run returned the first one's records; want a fresh campaign")
	}
	if !reflect.DeepEqual(a.Ideal, b.Ideal) {
		t.Error("ideal run differs between identical campaigns")
	}
	if !reflect.DeepEqual(a.ADF, b.ADF) {
		t.Error("ADF runs differ between identical campaigns")
	}
}

func TestCampaignSeedSensitivity(t *testing.T) {
	cfg := shortConfig()
	cfg.DTHFactors = []float64{1.0}
	a, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.ADF[0].TotalLUs() == b.ADF[0].TotalLUs() {
		t.Error("different seeds produced identical LU totals (suspicious)")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = -1
	if _, err := cfg.Run(); err == nil {
		t.Error("invalid config did not error")
	}
}

func TestIdealOfferedEqualsSent(t *testing.T) {
	cfg := shortConfig()
	run, err := cfg.runFilter(idealFactory)
	if err != nil {
		t.Fatal(err)
	}
	if run.LUPerSecond.Total() != run.OfferedPerSecond.Total() {
		t.Errorf("ideal sent %v != offered %v", run.LUPerSecond.Total(), run.OfferedPerSecond.Total())
	}
	// All 140 nodes tally into 11 regions.
	if got := len(run.OfferedByRegion.Keys()); got != 11 {
		t.Errorf("offered regions = %d, want 11", got)
	}
	// Offered samples ≈ 140 × duration × (1 − drop).
	expect := 140 * cfg.Duration * (1 - cfg.DropProb)
	got := run.OfferedPerSecond.Total()
	if got < 0.97*expect || got > 1.03*expect {
		t.Errorf("offered = %v, want ≈%v", got, expect)
	}
}
