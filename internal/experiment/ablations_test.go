package experiment

import (
	"math"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
)

func ablationConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 300
	cfg.DTHFactors = []float64{1.0}
	return cfg
}

func TestAblationADFvsGeneralDF(t *testing.T) {
	res, err := RunAblationADFvsGeneralDF(ablationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.ADFLUs <= 0 || row.GeneralLUs <= 0 {
		t.Errorf("non-positive LU totals: %+v", row)
	}
	if row.ADFRMSE <= 0 || row.GeneralRMSE <= 0 {
		t.Errorf("non-positive RMSE: %+v", row)
	}
	out := res.Table().String()
	if !strings.Contains(out, "general DF") {
		t.Errorf("table:\n%s", out)
	}
}

func TestAblationAlphaSweep(t *testing.T) {
	res, err := RunAblationAlphaSweep(ablationConfig(), []float64{0.25, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// A tighter similarity bound yields at least as many clusters.
	if res.Rows[0].Clusters < res.Rows[1].Clusters {
		t.Errorf("alpha=0.25 clusters %d < alpha=4 clusters %d",
			res.Rows[0].Clusters, res.Rows[1].Clusters)
	}
	if !strings.Contains(res.Table().String(), "similarity bound") {
		t.Error("table title missing")
	}
}

func TestAblationAlphaSweepDefaults(t *testing.T) {
	cfg := ablationConfig()
	cfg.Duration = 120
	res, err := RunAblationAlphaSweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("default sweep rows = %d, want 5", len(res.Rows))
	}
}

func TestAblationReclusterInterval(t *testing.T) {
	res, err := RunAblationReclusterInterval(ablationConfig(), []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TotalLUs <= 0 {
			t.Errorf("interval %v: no traffic", row.Param)
		}
	}
}

func TestAblationSmoothing(t *testing.T) {
	res, err := RunAblationSmoothing(ablationConfig(), []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The no-LE error does not depend on the smoothing constant: same
	// filter stream, same baseline broker.
	if res.Rows[0].RMSENoLE != res.Rows[1].RMSENoLE {
		t.Errorf("no-LE RMSE changed with smoothing: %v vs %v",
			res.Rows[0].RMSENoLE, res.Rows[1].RMSENoLE)
	}
	// The with-LE error does.
	if res.Rows[0].RMSELE == res.Rows[1].RMSELE {
		t.Error("with-LE RMSE identical across smoothing constants (suspicious)")
	}
}

func TestAblationEstimators(t *testing.T) {
	cfg := ablationConfig()
	cfg.Duration = 600
	res, err := RunAblationEstimators(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(EstimatorNames()) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(EstimatorNames()))
	}
	byName := map[string]EstimatorRow{}
	for _, row := range res.Rows {
		byName[row.Estimator] = row
		// The no-LE baseline is the same filtered stream in every run.
		if row.RMSENoLE != res.Rows[0].RMSENoLE {
			t.Errorf("%s: no-LE baseline differs: %v vs %v", row.Estimator, row.RMSENoLE, res.Rows[0].RMSENoLE)
		}
	}
	// The reproduction's estimation finding: gap-aware beats the no-LE
	// baseline; plain Brown extrapolation does not.
	ga := byName[EstimatorGapAware]
	if ga.RMSELE >= ga.RMSENoLE {
		t.Errorf("gap-aware did not reduce RMSE: %.2f -> %.2f", ga.RMSENoLE, ga.RMSELE)
	}
	brown := byName[EstimatorBrown]
	if brown.RMSELE <= ga.RMSELE {
		t.Errorf("brown (%.2f) unexpectedly beat gap-aware (%.2f)", brown.RMSELE, ga.RMSELE)
	}
	if !strings.Contains(res.Table().String(), "shoot-out") {
		t.Error("table title missing")
	}
}

func TestAblationSemantics(t *testing.T) {
	res, err := RunAblationSemantics(ablationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	// Per-step filters harder; anchored bounds the error.
	if row.PerStepLUs >= row.AnchoredLUs {
		t.Errorf("per-step LUs %v not below anchored %v", row.PerStepLUs, row.AnchoredLUs)
	}
	if row.AnchoredRMSENoLE >= row.PerStepRMSENoLE {
		t.Errorf("anchored RMSE %v not below per-step %v", row.AnchoredRMSENoLE, row.PerStepRMSENoLE)
	}
	if !strings.Contains(res.Table().String(), "semantics") {
		t.Error("table title missing")
	}
}

func TestAblationOutages(t *testing.T) {
	res, err := RunAblationOutages(ablationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	bern, burst := res.Rows[0], res.Rows[1]
	if bern.Model != "bernoulli" || burst.Model != "gilbert-elliott" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// The two loss models run at a matched long-run rate.
	if d := bern.MeanLoss - burst.MeanLoss; d > 0.01 || d < -0.01 {
		t.Errorf("mean losses not matched: %v vs %v", bern.MeanLoss, burst.MeanLoss)
	}
	for _, row := range res.Rows {
		if row.TotalLUs <= 0 || row.RMSENoLE <= 0 {
			t.Errorf("%s: degenerate row %+v", row.Model, row)
		}
	}
	if !strings.Contains(res.Table().String(), "bursty wireless loss") {
		t.Error("table title missing")
	}
}

func TestBurstConfigRejectedByValidate(t *testing.T) {
	cfg := ablationConfig()
	cfg.Burst = &gateway.BurstConfig{DropUp: 2}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid burst config accepted")
	}
}

func TestAblationChurn(t *testing.T) {
	res, err := RunAblationChurn(ablationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Churn removes nodes from the grid, so any churn level carries less
	// traffic than the full population. (Traffic is not monotone in churn
	// intensity: heavier churn also means more transmit-everything
	// re-warm-up windows after each rejoin.)
	for i, row := range res.Rows {
		if row.TotalLUs <= 0 || row.RMSEWithLE <= 0 {
			t.Errorf("%s: degenerate row %+v", row.Label, row)
		}
		if i > 0 && row.TotalLUs >= res.Rows[0].TotalLUs {
			t.Errorf("churned traffic not below no-churn baseline: %+v", res.Rows)
		}
	}
	if !strings.Contains(res.Table().String(), "node churn") {
		t.Error("table title missing")
	}
}

func TestChurnConfigValidate(t *testing.T) {
	bad := []ChurnConfig{
		{LeaveProb: -0.1},
		{LeaveProb: 1},
		{LeaveProb: 0.1, RejoinProb: 1.5},
		{LeaveProb: 0.1, RejoinProb: 0}, // never return
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if err := (ChurnConfig{LeaveProb: 0.01, RejoinProb: 0.05}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cfg := ablationConfig()
	cfg.Churn = &ChurnConfig{LeaveProb: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid churn accepted by experiment config")
	}
}

func TestChurnDeterministic(t *testing.T) {
	cfg := ablationConfig()
	cfg.Duration = 150
	cfg.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.05}
	a, err := cfg.runFilter(cfg.adfFactory(1.0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.runFilter(cfg.adfFactory(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalLUs() != b.TotalLUs() {
		t.Errorf("churn runs differ: %v vs %v", a.TotalLUs(), b.TotalLUs())
	}
}

// withheldDistances wraps a filter and keeps, per (node, time), the
// decision distance of every LU it withholds.
type withheldDistances struct {
	filter.Filter
	dist map[sampleKey]float64
}

type sampleKey struct {
	node int
	time float64
}

func (w *withheldDistances) Offer(lu filter.LU) filter.Decision {
	d := w.Filter.Offer(lu)
	if !d.Transmit {
		w.dist[sampleKey{lu.Node, lu.Time}] = d.Distance
	}
	return d
}

// noLEErrors keeps the no-LE error per (node, time) and
// forwards every event to the run's own sink.
type noLEErrors struct {
	engine.Observer
	dist map[sampleKey]float64
}

func (o *noLEErrors) OnError(s engine.Sample, v engine.Variant, dist float64) {
	if v == engine.NoLE {
		o.dist[sampleKey{s.Node, s.Time}] = dist
	}
	o.Observer.OnError(s, v, dist)
}

// TestOfferDistanceIsNoLEErrorOnlyAnchored pins when the distance the
// ADF computes in Offer could stand in for the no-LE error of
// a withheld sample. Under Anchored the filter's anchor is the last
// transmitted position, which is the no-LE belief, so the two agree bit
// for bit on every withheld sample. Under PerStep (the paper's default)
// the anchor is the previous sample, so they differ on some: handing
// the filter's distance to the error accounting is valid only under
// Anchored.
func TestOfferDistanceIsNoLEErrorOnlyAnchored(t *testing.T) {
	for _, sem := range []filter.Semantics{filter.Anchored, filter.PerStep} {
		cfg := ablationConfig()
		cfg.ADF.Semantics = sem
		withheld := &withheldDistances{dist: make(map[sampleKey]float64)}
		mk := cfg.adfFactory(1.0)
		p, _, err := cfg.buildPipeline(filterFactory{name: mk.name, factor: mk.factor, mk: func() (filter.Filter, error) {
			f, err := mk.mk()
			withheld.Filter = f
			return withheld, err
		}})
		if err != nil {
			t.Fatal(err)
		}
		errs := &noLEErrors{Observer: p.Lanes[0].Observer, dist: make(map[sampleKey]float64)}
		p.Lanes[0].Observer = errs
		if err := p.Run(cfg.Duration); err != nil {
			t.Fatal(err)
		}
		compared, differ := 0, 0
		for k, d := range withheld.dist {
			e, ok := errs.dist[k]
			if !ok {
				continue
			}
			compared++
			if math.Float64bits(d) != math.Float64bits(e) {
				differ++
			}
		}
		t.Logf("%v: %d of %d withheld samples differ", sem, differ, compared)
		switch {
		case compared == 0:
			t.Errorf("%v: no withheld sample with a no-LE belief", sem)
		case sem == filter.Anchored && differ != 0:
			t.Errorf("anchored: offer distance and no-LE error differ on %d of %d withheld samples", differ, compared)
		case sem == filter.PerStep && differ == 0:
			t.Errorf("per-step: offer distance equals the no-LE error on all %d withheld samples", compared)
		}
	}
}
