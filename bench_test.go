package adf

import (
	"testing"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/experiment"
)

// Benchmarks regenerate every table and figure of the paper's evaluation
// at full scale (140 nodes, 1800 simulated seconds) and report the
// headline numbers as custom metrics, so `go test -bench` output can be
// compared against the paper directly. EXPERIMENTS.md records the
// paper-vs-measured comparison.

// benchConfig is the full paper-scale campaign configuration.
func benchConfig() experiment.Config {
	return experiment.DefaultConfig()
}

// runCampaign runs one full campaign; each figure benchmark times one
// campaign per op plus its own derivation.
func runCampaign(b *testing.B, cfg experiment.Config) *experiment.Results {
	res, err := cfg.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Population regenerates Table 1: the 140-node population
// specification.
func BenchmarkTable1Population(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		res := experiment.RunTable1()
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFig4LUsPerSecond regenerates Figure 4: transmitted LUs per
// second, ideal vs ADF at 0.75av / 1.0av / 1.25av. The paper reports
// ≈135 LU/s ideal and reductions of 30.53% / 53.35% / 76.73%.
func BenchmarkFig4LUsPerSecond(b *testing.B) {
	var fig experiment.Fig4Result
	for i := 0; i < b.N; i++ {
		fig = runCampaign(b, benchConfig()).Fig4()
	}
	b.ReportMetric(fig.Rows[0].Value, "ideal-LU/s")
	b.ReportMetric(fig.Rows[1].Reduction, "reduction-0.75av-%")
	b.ReportMetric(fig.Rows[2].Reduction, "reduction-1.00av-%")
	b.ReportMetric(fig.Rows[3].Reduction, "reduction-1.25av-%")
}

// BenchmarkFig5AccumulatedLUs regenerates Figure 5: accumulated LUs over
// 1800 s. The paper's ideal baseline accumulates ≈243k LUs.
func BenchmarkFig5AccumulatedLUs(b *testing.B) {
	var fig experiment.Fig5Result
	for i := 0; i < b.N; i++ {
		fig = runCampaign(b, benchConfig()).Fig5()
	}
	b.ReportMetric(fig.Rows[0].Value, "ideal-total")
	for _, row := range fig.Rows[1:] {
		b.ReportMetric(fig.Fewer[row.Name], "fewer-"+row.Name)
	}
}

// BenchmarkFig6RegionRates regenerates Figure 6: LU transmission rate by
// region kind versus ideal. The paper reports roads 90.44/57.75/23.98 %
// and buildings 68.54/47.27/25.56 % at the three DTH sizes.
func BenchmarkFig6RegionRates(b *testing.B) {
	var fig experiment.Fig6Result
	for i := 0; i < b.N; i++ {
		fig = runCampaign(b, benchConfig()).Fig6()
	}
	for _, row := range fig.Rows {
		b.ReportMetric(row.RoadPct, "road-"+row.Name+"-%")
		b.ReportMetric(row.BuildingPct, "building-"+row.Name+"-%")
	}
}

// BenchmarkFig7RMSE regenerates Figure 7: location-error RMSE with and
// without the Location Estimator. The paper reports the LE cutting the
// RMSE to 33.41–46.97 % of the no-LE level.
func BenchmarkFig7RMSE(b *testing.B) {
	var fig experiment.Fig7Result
	for i := 0; i < b.N; i++ {
		fig = runCampaign(b, benchConfig()).Fig7()
	}
	for _, row := range fig.Rows {
		b.ReportMetric(row.RMSENoLE, "rmse-noLE-"+row.Name)
		b.ReportMetric(row.RMSEWithLE, "rmse-withLE-"+row.Name)
		b.ReportMetric(row.RatioPct, "withLE-as-%-"+row.Name)
	}
}

// BenchmarkFig8RegionRMSENoLE regenerates Figure 8: RMSE by region kind
// without the LE. The paper reports road ≈4.5× building.
func BenchmarkFig8RegionRMSENoLE(b *testing.B) {
	var fig experiment.Fig89Result
	for i := 0; i < b.N; i++ {
		fig = runCampaign(b, benchConfig()).Fig8()
	}
	for _, row := range fig.Rows {
		b.ReportMetric(row.RoadOverBuilding, "road/building-"+row.Name)
	}
}

// BenchmarkFig9RegionRMSEWithLE regenerates Figure 9: RMSE by region kind
// with the LE. The paper reports road ≈4.7× building.
func BenchmarkFig9RegionRMSEWithLE(b *testing.B) {
	var fig experiment.Fig89Result
	for i := 0; i < b.N; i++ {
		fig = runCampaign(b, benchConfig()).Fig9()
	}
	for _, row := range fig.Rows {
		b.ReportMetric(row.RoadOverBuilding, "road/building-"+row.Name)
	}
}

// ablationBenchConfig keeps the multi-run ablation benches tractable.
func ablationBenchConfig() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Duration = 600
	cfg.DTHFactors = []float64{1.0}
	return cfg
}

// BenchmarkAblationADFvsGeneralDF compares per-cluster against global
// DTH sizing (the paper's section-3.2.2 claim).
func BenchmarkAblationADFvsGeneralDF(b *testing.B) {
	var res experiment.ADFvsGeneralDFResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunAblationADFvsGeneralDF(ablationBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].ADFLUs, "adf-LUs")
	b.ReportMetric(res.Rows[0].GeneralLUs, "general-LUs")
}

// BenchmarkAblationAlphaSweep sweeps the clustering similarity bound.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	var res experiment.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunAblationAlphaSweep(ablationBenchConfig(), []float64{0.5, 1.0, 2.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(float64(row.Clusters), "clusters-alpha")
	}
}

// BenchmarkAblationEstimators runs the estimator shoot-out.
func BenchmarkAblationEstimators(b *testing.B) {
	var res experiment.EstimatorShootoutResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunAblationEstimators(ablationBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.RatioPct, "withLE-as-%-"+row.Estimator)
	}
}

// BenchmarkAblationRecluster sweeps the reconstruction interval.
func BenchmarkAblationRecluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationReclusterInterval(ablationBenchConfig(), []float64{0, 10, 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSmoothing sweeps the LE smoothing constant.
func BenchmarkAblationSmoothing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationSmoothing(ablationBenchConfig(), []float64{0.3, 0.5, 0.7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSemantics compares per-step against anchored distance
// semantics.
func BenchmarkAblationSemantics(b *testing.B) {
	var res experiment.SemanticsResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunAblationSemantics(ablationBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].PerStepLUs, "per-step-LUs")
	b.ReportMetric(res.Rows[0].AnchoredLUs, "anchored-LUs")
}

// BenchmarkADFOffer measures the hot filtering path: one Offer per
// iteration on a warmed-up 140-node ADF.
func BenchmarkADFOffer(b *testing.B) {
	f, err := NewADF(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	specs := campus.Table1Population(campus.New())
	// Warm the classifier windows.
	for t := 0; t < 20; t++ {
		for _, s := range specs {
			f.Offer(LU{Node: s.ID, Time: float64(t), Pos: Point{X: float64(t) * s.MaxSpeed}})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := specs[i%len(specs)]
		t := float64(20 + i/len(specs))
		f.Offer(LU{Node: s.ID, Time: t, Pos: Point{X: t * s.MaxSpeed}})
	}
}

// BenchmarkBrokerMissLU measures the estimation path: one gap-aware
// forecast per iteration.
func BenchmarkBrokerMissLU(b *testing.B) {
	brk := NewBroker(func() Estimator {
		e, err := NewGapAwareEstimator()
		if err != nil {
			b.Fatal(err)
		}
		return e
	})
	for i := 0; i <= 10; i++ {
		brk.ReceiveLU(1, float64(i), Point{X: float64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := brk.MissLU(1, 11+float64(i)*1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOutages compares independent vs bursty wireless loss
// at a matched mean rate (failure injection).
func BenchmarkAblationOutages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationOutages(ablationBenchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnergyBudget regenerates the battery-budget extension table:
// energy saved and projected battery life per filter configuration.
func BenchmarkEnergyBudget(b *testing.B) {
	var res experiment.EnergyResult
	for i := 0; i < b.N; i++ {
		res = runCampaign(b, ablationBenchConfig()).EnergyBudget()
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.SavingPct, "energy-saved-"+row.Name+"-%")
	}
}
