package experiment

import (
	"fmt"
	"strings"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/metrics"
)

// seriesBucket is the downsampling width (seconds) used when printing the
// 1800-point per-second series as figure rows.
const seriesBucket = 60

// Table1Result reproduces Table 1: the specification of the MNs used in
// the experiments.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one (region kind, mobility, type) group.
type Table1Row struct {
	RegionKind string
	Regions    int
	Mobility   string
	NodeType   string
	Count      int
	MinSpeed   float64
	MaxSpeed   float64
}

// RunTable1 builds the Table-1 population and summarises it exactly as
// the paper's Table 1 does.
func RunTable1() Table1Result {
	world := campus.New()
	specs := campus.Table1Population(world)

	type key struct {
		kind campus.RegionKind
		mob  campus.Mobility
		typ  campus.NodeType
	}
	counts := map[key]int{}
	speeds := map[key][2]float64{}
	regions := map[campus.RegionKind]map[campus.RegionID]bool{}
	for _, s := range specs {
		r, err := world.Region(s.Region)
		if err != nil {
			// Table1Population only emits known regions.
			panic(fmt.Sprintf("experiment: %v", err))
		}
		k := key{r.Kind, s.Mobility, s.Type}
		counts[k]++
		speeds[k] = [2]float64{s.MinSpeed, s.MaxSpeed}
		if regions[r.Kind] == nil {
			regions[r.Kind] = map[campus.RegionID]bool{}
		}
		regions[r.Kind][s.Region] = true
	}

	order := []key{
		{campus.Road, campus.Linear, campus.Human},
		{campus.Road, campus.Linear, campus.Vehicle},
		{campus.Building, campus.Stop, campus.Human},
		{campus.Building, campus.Random, campus.Human},
		{campus.Building, campus.Linear, campus.Human},
	}
	var res Table1Result
	for _, k := range order {
		res.Rows = append(res.Rows, Table1Row{
			RegionKind: k.kind.String(),
			Regions:    len(regions[k.kind]),
			Mobility:   k.mob.String(),
			NodeType:   k.typ.String(),
			Count:      counts[k],
			MinSpeed:   speeds[k][0],
			MaxSpeed:   speeds[k][1],
		})
	}
	return res
}

// Table renders Table 1.
func (r Table1Result) Table() *metrics.Table {
	t := metrics.NewTable("Table 1: specification of MNs used in experiments",
		"region", "#regions", "pattern", "type", "#MN", "velocity range")
	for _, row := range r.Rows {
		t.AddRow(row.RegionKind, fmt.Sprint(row.Regions), row.Mobility, row.NodeType,
			fmt.Sprint(row.Count), fmt.Sprintf("%g~%g m/s", row.MinSpeed, row.MaxSpeed))
	}
	return t
}

// FigRow is one filter configuration's summary line, shared by several
// figures.
type FigRow struct {
	Name   string
	Factor float64
	// Value carries the figure's headline number (mean LU/s for Fig. 4,
	// accumulated LUs for Fig. 5, ...).
	Value float64
	// Reduction is the relative reduction against the ideal baseline,
	// in percent.
	Reduction float64
}

// Fig4Result reproduces Figure 4: the number of transmitted LUs per
// second for the ideal baseline and the ADF at each DTH size.
type Fig4Result struct {
	Rows []FigRow
	// Series holds the per-second LU counts averaged into 60-second
	// buckets, keyed by run name, for the figure's time axis.
	Series map[string][]float64
}

// Fig4 derives Figure 4 from a completed campaign.
func (r *Results) Fig4() Fig4Result {
	out := Fig4Result{Series: map[string][]float64{}}
	add := func(run *Run) {
		out.Rows = append(out.Rows, FigRow{
			Name:      run.Name,
			Factor:    run.Factor,
			Value:     run.MeanLUsPerSecond(),
			Reduction: 100 * run.ReductionVersus(r.Ideal),
		})
		out.Series[run.Name] = metrics.Downsample(run.LUPerSecond.Series(), seriesBucket)
	}
	add(r.Ideal)
	for _, run := range r.ADF {
		add(run)
	}
	return out
}

// RunFig4 derives Figure 4 from the shared memoized campaign: all of
// RunFig4..RunFig9 (and RunEnergy) at the same config cost exactly one
// campaign between them.
func RunFig4(cfg Config) (Fig4Result, error) {
	res, err := cfg.Run()
	if err != nil {
		return Fig4Result{}, err
	}
	return res.Fig4(), nil
}

// Table renders Figure 4's summary rows.
func (f Fig4Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 4: transmitted LUs per second",
		"filter", "mean LU/s", "reduction vs ideal")
	for _, row := range f.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.1f", row.Value), fmt.Sprintf("%.2f%%", row.Reduction))
	}
	return t
}

// Fig5Result reproduces Figure 5: the number of accumulated LUs over the
// experiment horizon.
type Fig5Result struct {
	Rows []FigRow
	// Fewer is the absolute LU saving versus ideal, keyed by run name.
	Fewer map[string]float64
	// Series holds the cumulative LU counts sampled every 60 seconds.
	Series map[string][]float64
}

// Fig5 derives Figure 5 from a completed campaign.
func (r *Results) Fig5() Fig5Result {
	out := Fig5Result{Fewer: map[string]float64{}, Series: map[string][]float64{}}
	idealTotal := r.Ideal.TotalLUs()
	add := func(run *Run) {
		out.Rows = append(out.Rows, FigRow{
			Name:      run.Name,
			Factor:    run.Factor,
			Value:     run.TotalLUs(),
			Reduction: 100 * run.ReductionVersus(r.Ideal),
		})
		out.Fewer[run.Name] = idealTotal - run.TotalLUs()
		acc := metrics.Accumulate(run.LUPerSecond.Series())
		out.Series[run.Name] = sampleEvery(acc, seriesBucket)
	}
	add(r.Ideal)
	for _, run := range r.ADF {
		add(run)
	}
	return out
}

// sampleEvery picks every width-th value (and the last) from a series.
func sampleEvery(series []float64, width int) []float64 {
	if width <= 1 {
		return append([]float64(nil), series...)
	}
	var out []float64
	for i := width - 1; i < len(series); i += width {
		out = append(out, series[i])
	}
	if n := len(series); n > 0 && (n%width) != 0 {
		out = append(out, series[n-1])
	}
	return out
}

// RunFig5 derives Figure 5 from the shared memoized campaign.
func RunFig5(cfg Config) (Fig5Result, error) {
	res, err := cfg.Run()
	if err != nil {
		return Fig5Result{}, err
	}
	return res.Fig5(), nil
}

// Table renders Figure 5's summary rows.
func (f Fig5Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 5: accumulated LUs",
		"filter", "total LUs", "fewer than ideal", "reduction")
	for _, row := range f.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.0f", row.Value),
			fmt.Sprintf("%.0f", f.Fewer[row.Name]), fmt.Sprintf("%.2f%%", row.Reduction))
	}
	return t
}

// Fig6Row is one filter's per-region-kind transmission rate versus ideal.
type Fig6Row struct {
	Name        string
	Factor      float64
	RoadPct     float64
	BuildingPct float64
}

// Fig6Result reproduces Figure 6: the transmission rate of LUs by region.
type Fig6Result struct {
	Rows []Fig6Row
	// PerRegion holds rate-vs-ideal per individual region, keyed by run
	// name then region ID.
	PerRegion map[string]map[string]float64
}

// Fig6 derives Figure 6 from a completed campaign.
func (r *Results) Fig6() Fig6Result {
	out := Fig6Result{PerRegion: map[string]map[string]float64{}}
	kindSum := func(run *Run, prefix string) float64 {
		var sum float64
		for _, k := range run.SentByRegion.Keys() {
			if strings.HasPrefix(k, prefix) {
				sum += run.SentByRegion.Get(k)
			}
		}
		return sum
	}
	idealRoad := kindSum(r.Ideal, "R")
	idealBuilding := kindSum(r.Ideal, "B")
	for _, run := range r.ADF {
		row := Fig6Row{Name: run.Name, Factor: run.Factor}
		if idealRoad > 0 {
			row.RoadPct = 100 * kindSum(run, "R") / idealRoad
		}
		if idealBuilding > 0 {
			row.BuildingPct = 100 * kindSum(run, "B") / idealBuilding
		}
		out.Rows = append(out.Rows, row)

		per := map[string]float64{}
		for _, k := range run.SentByRegion.Keys() {
			if ideal := r.Ideal.SentByRegion.Get(k); ideal > 0 {
				per[k] = 100 * run.SentByRegion.Get(k) / ideal
			}
		}
		out.PerRegion[run.Name] = per
	}
	return out
}

// RunFig6 derives Figure 6 from the shared memoized campaign.
func RunFig6(cfg Config) (Fig6Result, error) {
	res, err := cfg.Run()
	if err != nil {
		return Fig6Result{}, err
	}
	return res.Fig6(), nil
}

// Table renders Figure 6.
func (f Fig6Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 6: transmission rate of LUs by region (vs ideal)",
		"filter", "roads", "buildings")
	for _, row := range f.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.2f%%", row.RoadPct), fmt.Sprintf("%.2f%%", row.BuildingPct))
	}
	return t
}

// Fig7Row is one DTH size's location-error summary with and without the
// Location Estimator.
type Fig7Row struct {
	Name       string
	Factor     float64
	RMSENoLE   float64
	RMSEWithLE float64
	// RatioPct is RMSEWithLE as a percentage of RMSENoLE (the paper
	// reports 33.41% and 46.97%).
	RatioPct float64
}

// Fig7Result reproduces Figure 7: the RMSE of the broker's location error
// over time, with and without the LE, per DTH size.
type Fig7Result struct {
	Rows []Fig7Row
	// SeriesNoLE and SeriesWithLE hold per-second RMSE averaged into
	// 60-second buckets, keyed by run name.
	SeriesNoLE   map[string][]float64
	SeriesWithLE map[string][]float64
}

// Fig7 derives Figure 7 from a completed campaign.
func (r *Results) Fig7() Fig7Result {
	out := Fig7Result{
		SeriesNoLE:   map[string][]float64{},
		SeriesWithLE: map[string][]float64{},
	}
	for _, run := range r.ADF {
		noLE := run.RMSENoLE.Overall()
		withLE := run.RMSEWithLE.Overall()
		row := Fig7Row{Name: run.Name, Factor: run.Factor, RMSENoLE: noLE, RMSEWithLE: withLE}
		if noLE > 0 {
			row.RatioPct = 100 * withLE / noLE
		}
		out.Rows = append(out.Rows, row)
		out.SeriesNoLE[run.Name] = metrics.Downsample(run.RMSENoLE.Series(), seriesBucket)
		out.SeriesWithLE[run.Name] = metrics.Downsample(run.RMSEWithLE.Series(), seriesBucket)
	}
	return out
}

// RunFig7 derives Figure 7 from the shared memoized campaign.
func RunFig7(cfg Config) (Fig7Result, error) {
	res, err := cfg.Run()
	if err != nil {
		return Fig7Result{}, err
	}
	return res.Fig7(), nil
}

// Table renders Figure 7.
func (f Fig7Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 7: location-error RMSE with and without LE",
		"filter", "RMSE w/o LE", "RMSE w/ LE", "w/ LE as % of w/o")
	for _, row := range f.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.2f", row.RMSENoLE),
			fmt.Sprintf("%.2f", row.RMSEWithLE), fmt.Sprintf("%.2f%%", row.RatioPct))
	}
	return t
}

// Fig89Row is one DTH size's per-region-kind RMSE.
type Fig89Row struct {
	Name         string
	Factor       float64
	RoadRMSE     float64
	BuildingRMSE float64
	// RoadOverBuilding is the ratio the paper highlights (≈4.5× without
	// LE, ≈4.7× with LE).
	RoadOverBuilding float64
}

// Fig89Result reproduces Figure 8 (without LE) or Figure 9 (with LE):
// RMSE by region kind.
type Fig89Result struct {
	WithLE bool
	Rows   []Fig89Row
}

// Fig8 derives Figure 8 (RMSE by region, without LE).
func (r *Results) Fig8() Fig89Result { return r.fig89(false) }

// Fig9 derives Figure 9 (RMSE by region, with LE).
func (r *Results) Fig9() Fig89Result { return r.fig89(true) }

func (r *Results) fig89(withLE bool) Fig89Result {
	out := Fig89Result{WithLE: withLE}
	for _, run := range r.ADF {
		byKind := run.RMSENoLEByKind
		if withLE {
			byKind = run.RMSEWithLEByKind
		}
		road := byKind[campus.Road.String()].RMSE()
		building := byKind[campus.Building.String()].RMSE()
		row := Fig89Row{Name: run.Name, Factor: run.Factor, RoadRMSE: road, BuildingRMSE: building}
		if building > 0 {
			row.RoadOverBuilding = road / building
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// RunFig8 derives Figure 8 from the shared memoized campaign.
func RunFig8(cfg Config) (Fig89Result, error) {
	res, err := cfg.Run()
	if err != nil {
		return Fig89Result{}, err
	}
	return res.Fig8(), nil
}

// RunFig9 derives Figure 9 from the shared memoized campaign.
func RunFig9(cfg Config) (Fig89Result, error) {
	res, err := cfg.Run()
	if err != nil {
		return Fig89Result{}, err
	}
	return res.Fig9(), nil
}

// Table renders Figure 8 or 9.
func (f Fig89Result) Table() *metrics.Table {
	title := "Figure 8: RMSE by region without LE"
	if f.WithLE {
		title = "Figure 9: RMSE by region with LE"
	}
	t := metrics.NewTable(title, "filter", "road RMSE", "building RMSE", "road/building")
	for _, row := range f.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.2f", row.RoadRMSE),
			fmt.Sprintf("%.2f", row.BuildingRMSE), fmt.Sprintf("%.2fx", row.RoadOverBuilding))
	}
	return t
}

// PercentileRow is one filter configuration's location-error quantiles.
type PercentileRow struct {
	Name   string
	Factor float64
	WithLE bool
	P50    float64
	P90    float64
	P99    float64
	Max    float64
}

// PercentilesResult is the tail view of Figure 7: the distribution of
// per-sample location errors rather than just its RMSE. Tails matter to
// the broker — a 99th-percentile error decides whether a dispatched job
// actually finds its node in range.
type PercentilesResult struct {
	Rows []PercentileRow
}

// Percentiles derives the error quantiles from a completed campaign.
func (r *Results) Percentiles() PercentilesResult {
	var out PercentilesResult
	for _, run := range r.ADF {
		for _, withLE := range []bool{false, true} {
			q := run.QuantNoLE
			if withLE {
				q = run.QuantWithLE
			}
			out.Rows = append(out.Rows, PercentileRow{
				Name:   run.Name,
				Factor: run.Factor,
				WithLE: withLE,
				P50:    q.P50,
				P90:    q.P90,
				P99:    q.P99,
				Max:    q.Max,
			})
		}
	}
	return out
}

// Table renders the error percentiles.
func (p PercentilesResult) Table() *metrics.Table {
	t := metrics.NewTable("Location-error percentiles (metres)",
		"filter", "LE", "p50", "p90", "p99", "max")
	for _, row := range p.Rows {
		le := "without"
		if row.WithLE {
			le = "with"
		}
		t.AddRow(row.Name, le,
			fmt.Sprintf("%.2f", row.P50), fmt.Sprintf("%.2f", row.P90),
			fmt.Sprintf("%.2f", row.P99), fmt.Sprintf("%.2f", row.Max))
	}
	return t
}
