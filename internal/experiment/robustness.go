package experiment

import (
	"fmt"
	"math"
	"time"

	"github.com/mobilegrid/adf/internal/metrics"
)

// SeedsRow summarises one DTH factor's headline metrics over several
// seeds, as mean ± sample standard deviation.
type SeedsRow struct {
	Factor        float64
	MeanReduction float64
	StdReduction  float64
	MeanRMSELE    float64
	StdRMSELE     float64
}

// SeedsResult is the statistical-robustness experiment: the whole
// campaign repeated across independent seeds, establishing that the
// reproduced shapes are not artefacts of one random draw.
type SeedsResult struct {
	Seeds int
	Rows  []SeedsRow
}

// RunSeeds repeats the campaign once per seed and aggregates the
// traffic-reduction and with-LE RMSE metrics per DTH factor. Every
// (seed × filter) run is independent, so they all share one flat worker
// pool instead of nesting per-seed campaigns.
func RunSeeds(cfg Config, seeds []int64) (SeedsResult, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	if err := cfg.Validate(); err != nil {
		return SeedsResult{}, err
	}
	var tasks []runTask
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		for _, t := range c.campaignTasks() {
			t.label = fmt.Sprintf("seed %d: %s", seed, t.label)
			tasks = append(tasks, t)
		}
	}
	runs, err := runAll(cfg.workers(), tasks)
	if err != nil {
		return SeedsResult{}, err
	}
	per := 1 + len(cfg.DTHFactors)
	reductions := make([][]float64, len(cfg.DTHFactors))
	rmses := make([][]float64, len(cfg.DTHFactors))
	for si := range seeds {
		ideal := runs[si*per]
		for i := range cfg.DTHFactors {
			run := runs[si*per+1+i]
			reductions[i] = append(reductions[i], 100*run.ReductionVersus(ideal))
			rmses[i] = append(rmses[i], run.RMSEWithLE.Overall())
		}
	}
	out := SeedsResult{Seeds: len(seeds)}
	for i, factor := range cfg.DTHFactors {
		mr, sr := meanStd(reductions[i])
		me, se := meanStd(rmses[i])
		out.Rows = append(out.Rows, SeedsRow{
			Factor:        factor,
			MeanReduction: mr,
			StdReduction:  sr,
			MeanRMSELE:    me,
			StdRMSELE:     se,
		})
	}
	return out, nil
}

// meanStd returns the mean and sample standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// Table renders the seeds experiment.
func (r SeedsResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Robustness: %d independent seeds", r.Seeds),
		"factor", "reduction (mean±std)", "RMSE w/ LE (mean±std)")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2fav", row.Factor),
			fmt.Sprintf("%.2f%% ± %.2f", row.MeanReduction, row.StdReduction),
			fmt.Sprintf("%.2f ± %.2f", row.MeanRMSELE, row.StdRMSELE))
	}
	return t
}

// ScaleRow is one population size's outcome.
type ScaleRow struct {
	Nodes        int
	TotalLUs     float64
	ReductionPct float64
	RMSELE       float64
	// WallPerSimSecond is the wall-clock time per lane per simulated
	// second: the wall time of the point's passes divided by its lanes
	// (the ideal and the ADF run) and by the horizon — the simulator's
	// throughput at this scale.
	WallPerSimSecond time.Duration
}

// ScaleResult is the scalability experiment: the Table-1 population
// multiplied up to ≈10× while everything else stays fixed.
type ScaleResult struct {
	Rows []ScaleRow
}

// RunScale runs the ADF at the first configured DTH factor for each
// per-group population size (default 5, 10, 20, 40 → 140 to 1120 nodes).
// Every scale point is its own world with an ideal and an ADF lane, and
// the points' passes share the campaign worker pool, so with Workers > 1
// a row's wall-clock per lane per simulated second is throughput under
// concurrent load.
func RunScale(cfg Config, perGroups []int) (ScaleResult, error) {
	if len(perGroups) == 0 {
		perGroups = []int{5, 10, 20, 40}
	}
	if err := cfg.Validate(); err != nil {
		return ScaleResult{}, err
	}
	var tasks []runTask
	for _, pg := range perGroups {
		if pg <= 0 {
			return ScaleResult{}, fmt.Errorf("experiment: per-group size %d not positive", pg)
		}
		c := cfg
		c.PerGroup = pg
		label := fmt.Sprintf("scale %d nodes", pg*28)
		tasks = append(tasks,
			runTask{label: label, cfg: c, mk: idealFactory},
			runTask{label: label, cfg: c, mk: c.adfFactory(c.DTHFactors[0])})
	}
	runs, wall, err := runAllTimed(cfg.workers(), tasks)
	if err != nil {
		return ScaleResult{}, err
	}
	rows := make([]ScaleRow, len(perGroups))
	for i, pg := range perGroups {
		ideal, run := runs[2*i], runs[2*i+1]
		rows[i] = ScaleRow{
			Nodes:            pg * 28,
			TotalLUs:         run.TotalLUs(),
			ReductionPct:     100 * run.ReductionVersus(ideal),
			RMSELE:           run.RMSEWithLE.Overall(),
			WallPerSimSecond: time.Duration(float64(wall[2*i]+wall[2*i+1]) / (2 * cfg.Duration)),
		}
	}
	return ScaleResult{Rows: rows}, nil
}

// Table renders the scalability experiment.
func (r ScaleResult) Table() *metrics.Table {
	t := metrics.NewTable("Scalability: Table-1 population multiplied",
		"nodes", "total LUs", "reduction", "RMSE w/ LE", "wall-clock / lane / sim-second")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Nodes),
			fmt.Sprintf("%.0f", row.TotalLUs),
			fmt.Sprintf("%.2f%%", row.ReductionPct),
			fmt.Sprintf("%.2f", row.RMSELE),
			row.WallPerSimSecond.String())
	}
	return t
}
