package adf

import (
	"io"

	"github.com/mobilegrid/adf/internal/experiment"
)

// ExperimentConfig parameterises a reproduction campaign of the paper's
// evaluation (section 4): 140 mobile nodes on the synthetic campus,
// sampled at 1 Hz through the wireless gateways, filtered and tracked by
// a broker, with and without the Location Estimator.
type ExperimentConfig struct {
	// Seed drives every random stream; equal seeds reproduce runs
	// bit-for-bit.
	Seed int64
	// Duration is the simulated horizon in seconds (1800 in the paper).
	Duration float64
	// DTHFactors are the distance-threshold scalings (0.75, 1.0, 1.25 in
	// the paper).
	DTHFactors []float64
	// DropProb is the per-sample wireless disconnection probability.
	DropProb float64
	// Estimator selects the Location Estimator: "gap-aware" (default),
	// "brown", "single", "dead-reckoning" or "ar1".
	Estimator string
	// Smoothing is the estimator's smoothing constant in (0, 1).
	Smoothing float64
	// Workers bounds the campaign's worker pool: 0 means one worker per
	// CPU, 1 forces sequential execution. The pool size never changes the
	// results — runs are bit-for-bit identical at any setting.
	Workers int
}

// DefaultExperimentConfig returns the paper's experiment setup.
func DefaultExperimentConfig() ExperimentConfig {
	c := experiment.DefaultConfig()
	return ExperimentConfig{
		Seed:       c.Seed,
		Duration:   c.Duration,
		DTHFactors: c.DTHFactors,
		DropProb:   c.DropProb,
		Estimator:  c.Estimator,
		Smoothing:  c.Smoothing,
	}
}

func (c ExperimentConfig) internal() experiment.Config {
	cfg := experiment.DefaultConfig()
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if c.Duration > 0 {
		cfg.Duration = c.Duration
	}
	if len(c.DTHFactors) > 0 {
		cfg.DTHFactors = append([]float64(nil), c.DTHFactors...)
	}
	if c.DropProb > 0 {
		cfg.DropProb = c.DropProb
	}
	if c.Estimator != "" {
		cfg.Estimator = c.Estimator
	}
	if c.Smoothing > 0 {
		cfg.Smoothing = c.Smoothing
	}
	if c.Workers > 0 {
		cfg.Workers = c.Workers
	}
	return cfg
}

// FilterSummary is one filter configuration's traffic summary.
type FilterSummary struct {
	// Name identifies the filter ("ideal", "adf(0.75av)", ...).
	Name string
	// Factor is the DTH factor (0 for the ideal baseline).
	Factor float64
	// MeanLUsPerSecond is the average transmitted LU rate.
	MeanLUsPerSecond float64
	// TotalLUs is the accumulated LU count over the horizon.
	TotalLUs float64
	// ReductionPct is the traffic reduction versus ideal, in percent.
	ReductionPct float64
	// RoadRatePct and BuildingRatePct are the per-region-kind
	// transmission rates versus ideal, in percent.
	RoadRatePct     float64
	BuildingRatePct float64
	// RMSENoLE and RMSEWithLE are the overall location-error RMSEs of the
	// broker without and with the Location Estimator.
	RMSENoLE   float64
	RMSEWithLE float64
	// RoadRMSE and BuildingRMSE split the no-LE error by region kind;
	// RoadRMSELE and BuildingRMSELE are the with-LE equivalents.
	RoadRMSE       float64
	BuildingRMSE   float64
	RoadRMSELE     float64
	BuildingRMSELE float64
}

// ExperimentResults is a completed reproduction campaign.
type ExperimentResults struct {
	// Ideal is the unfiltered baseline's summary.
	Ideal FilterSummary
	// ADF holds one summary per DTH factor, in configuration order.
	ADF []FilterSummary

	res *experiment.Results
}

// RunExperiments runs the campaign behind figures 4–9. The campaign's
// independent simulations execute concurrently (see Workers); every
// figure derived from the result reuses that one campaign, and each call
// runs a fresh one.
func RunExperiments(cfg ExperimentConfig) (*ExperimentResults, error) {
	res, err := cfg.internal().Run()
	if err != nil {
		return nil, err
	}
	out := &ExperimentResults{res: res}
	fig6 := res.Fig6()
	out.Ideal = summarise(res, res.Ideal, 100, 100)
	for i, run := range res.ADF {
		out.ADF = append(out.ADF, summarise(res, run, fig6.Rows[i].RoadPct, fig6.Rows[i].BuildingPct))
	}
	return out, nil
}

func summarise(res *experiment.Results, run *experiment.Run, roadPct, buildingPct float64) FilterSummary {
	return FilterSummary{
		Name:             run.Name,
		Factor:           run.Factor,
		MeanLUsPerSecond: run.MeanLUsPerSecond(),
		TotalLUs:         run.TotalLUs(),
		ReductionPct:     100 * run.ReductionVersus(res.Ideal),
		RoadRatePct:      roadPct,
		BuildingRatePct:  buildingPct,
		RMSENoLE:         run.RMSENoLE.Overall(),
		RMSEWithLE:       run.RMSEWithLE.Overall(),
		RoadRMSE:         run.RMSENoLEByKind["road"].RMSE(),
		BuildingRMSE:     run.RMSENoLEByKind["building"].RMSE(),
		RoadRMSELE:       run.RMSEWithLEByKind["road"].RMSE(),
		BuildingRMSELE:   run.RMSEWithLEByKind["building"].RMSE(),
	}
}

// WriteReport renders every table and figure of the paper's evaluation
// (Table 1, Figures 4–9) from the campaign.
func (r *ExperimentResults) WriteReport(w io.Writer) error {
	tables := []interface{ String() string }{
		experiment.RunTable1().Table(),
		r.res.Fig4().Table(),
		r.res.Fig5().Table(),
		r.res.Fig6().Table(),
		r.res.Fig7().Table(),
		r.res.Fig8().Table(),
		r.res.Fig9().Table(),
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, t.String()); err != nil {
			return err
		}
	}
	return nil
}

// LUSeries returns a run's transmitted-LUs-per-second series averaged
// into 60-second buckets (the Figure-4 curves), keyed by run name.
func (r *ExperimentResults) LUSeries() map[string][]float64 {
	return r.res.Fig4().Series
}

// RMSESeries returns the per-second location-error RMSE series averaged
// into 60-second buckets (the Figure-7 curves): the first map is without
// LE, the second with LE.
func (r *ExperimentResults) RMSESeries() (noLE, withLE map[string][]float64) {
	fig := r.res.Fig7()
	return fig.SeriesNoLE, fig.SeriesWithLE
}

// AblationReport runs the design-choice ablations DESIGN.md indexes (ADF
// vs general DF, clustering α sweep, estimator shoot-out, recluster
// interval, LE smoothing, filter semantics, bursty loss, node churn) and
// renders their tables.
func AblationReport(w io.Writer, cfg ExperimentConfig) error {
	return experiment.WriteAblations(w, cfg.internal(), experiment.Ablations)
}
