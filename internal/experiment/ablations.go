package experiment

import (
	"fmt"
	"io"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/metrics"
)

// Ablation is one design-choice ablation: its name (an `adfsim -figure`
// value) and the run that renders its table.
type Ablation struct {
	Name string
	Run  func(Config) (*metrics.Table, error)
}

// Ablations are the design-choice ablations DESIGN.md indexes, in report
// order. Each runs at the configured DTH factors (the single-factor ones
// at the first).
var Ablations = []Ablation{
	{"adf-vs-gdf", tabled(RunAblationADFvsGeneralDF)},
	{"alpha", tabled(func(c Config) (SweepResult, error) { return RunAblationAlphaSweep(c, nil) })},
	{"estimators", tabled(RunAblationEstimators)},
	{"recluster", tabled(func(c Config) (SweepResult, error) { return RunAblationReclusterInterval(c, nil) })},
	{"smoothing", tabled(func(c Config) (SweepResult, error) { return RunAblationSmoothing(c, nil) })},
	{"semantics", tabled(RunAblationSemantics)},
	{"outages", tabled(RunAblationOutages)},
	{"churn", tabled(RunAblationChurn)},
}

// tabled adapts an ablation run to the Ablation.Run shape.
func tabled[R interface{ Table() *metrics.Table }](run func(Config) (R, error)) func(Config) (*metrics.Table, error) {
	return func(c Config) (*metrics.Table, error) {
		r, err := run(c)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}
}

// LookupAblation returns the ablation called name.
func LookupAblation(name string) (Ablation, bool) {
	for _, a := range Ablations {
		if a.Name == name {
			return a, true
		}
	}
	return Ablation{}, false
}

// WriteAblations runs each ablation under cfg in order and writes its
// table to w, a blank line between tables.
func WriteAblations(w io.Writer, cfg Config, ablations []Ablation) error {
	for i, a := range ablations {
		t, err := a.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		sep := ""
		if i > 0 {
			sep = "\n"
		}
		if _, err := io.WriteString(w, sep+t.String()); err != nil {
			return err
		}
	}
	return nil
}

// AblationADFvsGeneralDFRow compares the ADF against the general distance
// filter at one DTH factor.
type AblationADFvsGeneralDFRow struct {
	Factor      float64
	ADFLUs      float64
	GeneralLUs  float64
	ADFRMSE     float64 // with LE
	GeneralRMSE float64 // with LE
}

// ADFvsGeneralDFResult is the section-3.2.2 ablation: per-cluster DTH
// versus one global DTH, at matched factors.
type ADFvsGeneralDFResult struct {
	Rows []AblationADFvsGeneralDFRow
}

// RunAblationADFvsGeneralDF runs the ADF and the general DF at every
// configured DTH factor and compares traffic and location error. The
// interleaved (ADF, general) pairs all execute concurrently on the
// worker pool.
func RunAblationADFvsGeneralDF(cfg Config) (ADFvsGeneralDFResult, error) {
	world := campus.New()
	meanSpeed := PopulationMeanSpeed(campus.Table1Population(world))
	var tasks []runTask
	for _, factor := range cfg.DTHFactors {
		tasks = append(tasks,
			runTask{label: fmt.Sprintf("adf %.2fav", factor), cfg: cfg, mk: cfg.adfFactory(factor)},
			runTask{label: fmt.Sprintf("general %.2fav", factor), cfg: cfg, mk: cfg.generalDFFactory(factor, meanSpeed)})
	}
	runs, err := runAll(cfg.workers(), tasks)
	if err != nil {
		return ADFvsGeneralDFResult{}, err
	}
	var out ADFvsGeneralDFResult
	for i, factor := range cfg.DTHFactors {
		adfRun, gdfRun := runs[2*i], runs[2*i+1]
		out.Rows = append(out.Rows, AblationADFvsGeneralDFRow{
			Factor:      factor,
			ADFLUs:      adfRun.TotalLUs(),
			GeneralLUs:  gdfRun.TotalLUs(),
			ADFRMSE:     adfRun.RMSEWithLE.Overall(),
			GeneralRMSE: gdfRun.RMSEWithLE.Overall(),
		})
	}
	return out, nil
}

// Table renders the ADF-vs-general-DF comparison.
func (r ADFvsGeneralDFResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation: ADF (per-cluster DTH) vs general DF (global DTH)",
		"factor", "ADF LUs", "general LUs", "ADF RMSE", "general RMSE")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2fav", row.Factor),
			fmt.Sprintf("%.0f", row.ADFLUs), fmt.Sprintf("%.0f", row.GeneralLUs),
			fmt.Sprintf("%.2f", row.ADFRMSE), fmt.Sprintf("%.2f", row.GeneralRMSE))
	}
	return t
}

// SweepRow is one parameter setting's outcome in a sweep ablation.
type SweepRow struct {
	Param    float64
	TotalLUs float64
	RMSENoLE float64
	RMSELE   float64
	Clusters int
}

// SweepResult is a generic single-parameter ablation sweep.
type SweepResult struct {
	Name  string
	Label string
	Rows  []SweepRow
}

// Table renders a sweep.
func (r SweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation: "+r.Name, r.Label, "total LUs", "RMSE w/o LE", "RMSE w/ LE", "clusters")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%g", row.Param),
			fmt.Sprintf("%.0f", row.TotalLUs),
			fmt.Sprintf("%.2f", row.RMSENoLE), fmt.Sprintf("%.2f", row.RMSELE),
			fmt.Sprint(row.Clusters))
	}
	return t
}

// sweep runs one full simulation per parameter value at the first
// configured DTH factor; the settings execute concurrently on the
// worker pool.
func (c Config) sweep(name, label string, params []float64, apply func(*Config, float64)) (SweepResult, error) {
	var tasks []runTask
	for _, p := range params {
		cfg := c
		cfg.DTHFactors = append([]float64(nil), c.DTHFactors...)
		apply(&cfg, p)
		tasks = append(tasks, runTask{
			label: fmt.Sprintf("%s %s=%g", name, label, p),
			cfg:   cfg,
			mk:    cfg.adfFactory(cfg.DTHFactors[0]),
		})
	}
	runs, err := runAll(c.workers(), tasks)
	if err != nil {
		return SweepResult{}, err
	}
	out := SweepResult{Name: name, Label: label}
	for i, p := range params {
		run := runs[i]
		out.Rows = append(out.Rows, SweepRow{
			Param:    p,
			TotalLUs: run.TotalLUs(),
			RMSENoLE: run.RMSENoLE.Overall(),
			RMSELE:   run.RMSEWithLE.Overall(),
			Clusters: run.FinalClusters,
		})
	}
	return out, nil
}

// RunAblationAlphaSweep sweeps the sequential clustering's similarity
// bound α (m/s) at the first configured DTH factor.
func RunAblationAlphaSweep(cfg Config, alphas []float64) (SweepResult, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	}
	return cfg.sweep("clustering similarity bound α", "alpha (m/s)", alphas,
		func(c *Config, v float64) { c.ADF.Cluster.Alpha = v })
}

// RunAblationReclusterInterval sweeps the ADF's cluster-reconstruction
// interval (seconds; 0 disables periodic reconstruction).
func RunAblationReclusterInterval(cfg Config, intervals []float64) (SweepResult, error) {
	if len(intervals) == 0 {
		intervals = []float64{0, 5, 10, 30, 120, 600}
	}
	return cfg.sweep("cluster reconstruction interval", "interval (s)", intervals,
		func(c *Config, v float64) { c.ADF.ReclusterInterval = v })
}

// RunAblationSmoothing sweeps the Location Estimator's smoothing constant.
func RunAblationSmoothing(cfg Config, alphas []float64) (SweepResult, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	return cfg.sweep("LE smoothing constant", "alpha", alphas,
		func(c *Config, v float64) { c.Smoothing = v })
}

// EstimatorRow is one estimator's outcome in the shoot-out.
type EstimatorRow struct {
	Estimator string
	RMSENoLE  float64
	RMSELE    float64
	RatioPct  float64
}

// EstimatorShootoutResult compares every location estimator on identical
// filtered streams.
type EstimatorShootoutResult struct {
	Factor float64
	Rows   []EstimatorRow
}

// RunAblationEstimators runs the ADF at the first configured DTH factor
// once per estimator and compares the resulting location error. It
// documents the reproduction's key estimation finding: plain trajectory
// extrapolation (Brown, single, dead reckoning) *increases* the error
// under per-step distance filtering, because updates are withheld exactly
// when the node moves slowly; only the gap-aware estimator improves on
// the no-LE baseline across the board.
func RunAblationEstimators(cfg Config) (EstimatorShootoutResult, error) {
	names := EstimatorNames()
	var tasks []runTask
	for _, name := range names {
		c := cfg
		c.Estimator = name
		tasks = append(tasks, runTask{
			label: "estimator " + name,
			cfg:   c,
			mk:    c.adfFactory(c.DTHFactors[0]),
		})
	}
	runs, err := runAll(cfg.workers(), tasks)
	if err != nil {
		return EstimatorShootoutResult{}, err
	}
	out := EstimatorShootoutResult{Factor: cfg.DTHFactors[0]}
	for i, name := range names {
		noLE := runs[i].RMSENoLE.Overall()
		withLE := runs[i].RMSEWithLE.Overall()
		row := EstimatorRow{Estimator: name, RMSENoLE: noLE, RMSELE: withLE}
		if noLE > 0 {
			row.RatioPct = 100 * withLE / noLE
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the estimator shoot-out.
func (r EstimatorShootoutResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: estimator shoot-out at %.2fav", r.Factor),
		"estimator", "RMSE w/o LE", "RMSE w/ LE", "w/ LE as % of w/o")
	for _, row := range r.Rows {
		t.AddRow(row.Estimator, fmt.Sprintf("%.2f", row.RMSENoLE),
			fmt.Sprintf("%.2f", row.RMSELE), fmt.Sprintf("%.2f%%", row.RatioPct))
	}
	return t
}

// SemanticsRow compares the two distance-comparison semantics at one DTH
// factor.
type SemanticsRow struct {
	Factor           float64
	PerStepLUs       float64
	AnchoredLUs      float64
	PerStepRMSENoLE  float64
	AnchoredRMSENoLE float64
}

// SemanticsResult is the filter-semantics ablation: the paper's per-step
// "moving distance" comparison versus the classic anchored distance
// filter. Per-step reduces traffic far more; anchored bounds the broker's
// error by the DTH.
type SemanticsResult struct {
	Rows []SemanticsRow
}

// RunAblationSemantics runs the ADF under both semantics at every
// configured DTH factor, all concurrently on the worker pool.
func RunAblationSemantics(cfg Config) (SemanticsResult, error) {
	var tasks []runTask
	for _, factor := range cfg.DTHFactors {
		perStep := cfg
		perStep.ADF.Semantics = filter.PerStep
		anchored := cfg
		anchored.ADF.Semantics = filter.Anchored
		tasks = append(tasks,
			runTask{label: fmt.Sprintf("per-step %.2fav", factor), cfg: perStep, mk: perStep.adfFactory(factor)},
			runTask{label: fmt.Sprintf("anchored %.2fav", factor), cfg: anchored, mk: anchored.adfFactory(factor)})
	}
	runs, err := runAll(cfg.workers(), tasks)
	if err != nil {
		return SemanticsResult{}, err
	}
	var out SemanticsResult
	for i, factor := range cfg.DTHFactors {
		psRun, anRun := runs[2*i], runs[2*i+1]
		out.Rows = append(out.Rows, SemanticsRow{
			Factor:           factor,
			PerStepLUs:       psRun.TotalLUs(),
			AnchoredLUs:      anRun.TotalLUs(),
			PerStepRMSENoLE:  psRun.RMSENoLE.Overall(),
			AnchoredRMSENoLE: anRun.RMSENoLE.Overall(),
		})
	}
	return out, nil
}

// Table renders the semantics ablation.
func (r SemanticsResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation: per-step vs anchored distance semantics",
		"factor", "per-step LUs", "anchored LUs", "per-step RMSE", "anchored RMSE")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2fav", row.Factor),
			fmt.Sprintf("%.0f", row.PerStepLUs), fmt.Sprintf("%.0f", row.AnchoredLUs),
			fmt.Sprintf("%.2f", row.PerStepRMSENoLE), fmt.Sprintf("%.2f", row.AnchoredRMSENoLE))
	}
	return t
}

// OutageRow compares one loss model's outcome.
type OutageRow struct {
	Model      string
	MeanLoss   float64
	TotalLUs   float64
	RMSENoLE   float64
	RMSEWithLE float64
}

// OutageResult is the failure-injection ablation: independent
// (Bernoulli) sample loss versus correlated Gilbert–Elliott outages at
// the same long-run loss rate.
type OutageResult struct {
	Rows []OutageRow
}

// RunAblationOutages runs the ADF at the first configured DTH factor
// under both loss models with matched mean loss.
func RunAblationOutages(cfg Config) (OutageResult, error) {
	burst := gateway.BurstConfig{
		// Mean outage every ~500 s lasting ~20 s: long-run loss
		// 1/(1+25) ≈ 3.8%, near the default 3.5% Bernoulli rate.
		PEnterOutage: 0.002,
		PExitOutage:  0.05,
		DropUp:       0,
		DropDown:     1,
	}

	bernoulli := cfg
	bernoulli.Burst = nil
	bernoulli.DropProb = burst.MeanLoss()
	bursty := cfg
	bursty.Burst = &burst
	runs, err := runAll(cfg.workers(), []runTask{
		{label: "bernoulli loss", cfg: bernoulli, mk: bernoulli.adfFactory(cfg.DTHFactors[0])},
		{label: "gilbert-elliott loss", cfg: bursty, mk: bursty.adfFactory(cfg.DTHFactors[0])},
	})
	if err != nil {
		return OutageResult{}, err
	}
	bRun, gRun := runs[0], runs[1]

	return OutageResult{Rows: []OutageRow{
		{
			Model:      "bernoulli",
			MeanLoss:   bernoulli.DropProb,
			TotalLUs:   bRun.TotalLUs(),
			RMSENoLE:   bRun.RMSENoLE.Overall(),
			RMSEWithLE: bRun.RMSEWithLE.Overall(),
		},
		{
			Model:      "gilbert-elliott",
			MeanLoss:   burst.MeanLoss(),
			TotalLUs:   gRun.TotalLUs(),
			RMSENoLE:   gRun.RMSENoLE.Overall(),
			RMSEWithLE: gRun.RMSEWithLE.Overall(),
		},
	}}, nil
}

// Table renders the outage ablation.
func (r OutageResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation: independent vs bursty wireless loss",
		"loss model", "mean loss", "total LUs", "RMSE w/o LE", "RMSE w/ LE")
	for _, row := range r.Rows {
		t.AddRow(row.Model,
			fmt.Sprintf("%.1f%%", 100*row.MeanLoss),
			fmt.Sprintf("%.0f", row.TotalLUs),
			fmt.Sprintf("%.2f", row.RMSENoLE), fmt.Sprintf("%.2f", row.RMSEWithLE))
	}
	return t
}

// ChurnRow compares one churn level's outcome.
type ChurnRow struct {
	Label      string
	TotalLUs   float64
	RMSEWithLE float64
}

// ChurnResult is the relocation ablation: nodes leaving and rejoining the
// grid, exercising the full forget/re-learn path (classifier window,
// cluster membership, broker record) per departure.
type ChurnResult struct {
	Rows []ChurnRow
}

// RunAblationChurn runs the ADF at the first configured DTH factor
// without churn and with mean session lengths of ≈200 s and ≈50 s.
func RunAblationChurn(cfg Config) (ChurnResult, error) {
	levels := []struct {
		label string
		churn *ChurnConfig
	}{
		{"no churn", nil},
		{"mild (≈200 s sessions)", &ChurnConfig{LeaveProb: 0.005, RejoinProb: 0.02}},
		{"heavy (≈50 s sessions)", &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.05}},
	}
	var tasks []runTask
	for _, level := range levels {
		c := cfg
		c.Churn = level.churn
		tasks = append(tasks, runTask{
			label: "churn " + level.label,
			cfg:   c,
			mk:    c.adfFactory(c.DTHFactors[0]),
		})
	}
	runs, err := runAll(cfg.workers(), tasks)
	if err != nil {
		return ChurnResult{}, err
	}
	var out ChurnResult
	for i, level := range levels {
		out.Rows = append(out.Rows, ChurnRow{
			Label:      level.label,
			TotalLUs:   runs[i].TotalLUs(),
			RMSEWithLE: runs[i].RMSEWithLE.Overall(),
		})
	}
	return out, nil
}

// Table renders the churn ablation.
func (r ChurnResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation: node churn (leave/rejoin)",
		"churn", "total LUs", "RMSE w/ LE")
	for _, row := range r.Rows {
		t.AddRow(row.Label, fmt.Sprintf("%.0f", row.TotalLUs), fmt.Sprintf("%.2f", row.RMSEWithLE))
	}
	return t
}
