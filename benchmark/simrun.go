package main

import (
	"fmt"
	"math"
	"time"

	"github.com/mobilegrid/adf/internal/experiment"
)

// idealRate is the calibration the gateways' 3.5% drop probability
// gives: LUs per present node-second the ideal (no-filter) run sends.
const (
	idealRate    = 0.965
	idealRateTol = 0.01
)

// runSim executes one measured run of a simulation workload through the
// program's public entry points: Config.RunUncached for each of the
// run's seeds, then Results.Fig4 and Results.Percentiles. wall_s spans
// the RunUncached call up to the moment the Fig4 reduction and the P99
// percentile are in hand. With setup set, every seed runs at a one-tick
// horizon and the time is reported as setup_s instead.
func runSim(s simSpec, seed int64, setup bool) (childResult, error) {
	nodes := s.nodes()
	var (
		elapsed        time.Duration
		ops            int
		failures       []string
		red, rmse, p99 []float64
	)
	for i := 0; i < s.seeds; i++ {
		c := s.config(seed + int64(i))
		if setup {
			c.Duration = c.SamplePeriod
		}
		start := clock()
		res, err := c.RunUncached()
		if err != nil {
			return childResult{}, fmt.Errorf("seed %d: %w", c.Seed, err)
		}
		fig := res.Fig4()
		pct := res.Percentiles()
		elapsed += since(start)
		ops += 1 + len(res.ADF)
		if setup {
			continue
		}
		failures = append(failures, checkSim(c, res, fig, nodes)...)
		k := factorIndex(c.DTHFactors, 1.0)
		if k < 0 {
			return childResult{}, fmt.Errorf("workload has no DTH factor 1.0")
		}
		red = append(red, fig.Rows[k+1].Reduction)
		rmse = append(rmse, res.ADF[k].RMSEWithLE.Overall())
		p99 = append(p99, withLEP99(pct, res.ADF[k].Name))
	}
	if setup {
		return childResult{Ops: ops, Metrics: map[string]float64{"setup_s": elapsed.Seconds()}}, nil
	}
	return childResult{
		Ops:      ops,
		Failures: failures,
		Metrics: map[string]float64{
			"wall_s":                elapsed.Seconds(),
			"traffic_reduction_pct": mean(red),
			"rmse_with_le_m":        mean(rmse),
			"err_p99_with_le_m":     mean(p99),
		},
	}, nil
}

// checkSim runs the output checks of one campaign: the ideal rate
// matches the drop calibration, ADF reduction rises strictly with the
// DTH factor, and the LE lowers every ADF run's RMSE.
func checkSim(c experiment.Config, res *experiment.Results, fig experiment.Fig4Result, nodes int) []string {
	var fails []string
	present := presentNodeSeconds(c, nodes)
	if rate := res.Ideal.TotalLUs() / present; math.Abs(rate-idealRate) > idealRateTol {
		fails = append(fails, fmt.Sprintf("seed %d: ideal rate %.4f LU per node-second, want %.3f ± %.2f",
			c.Seed, rate, idealRate, idealRateTol))
	}
	for i := 2; i < len(fig.Rows); i++ {
		if fig.Rows[i].Reduction <= fig.Rows[i-1].Reduction {
			fails = append(fails, fmt.Sprintf("seed %d: reduction %.2f%% at %s not above %.2f%% at %s",
				c.Seed, fig.Rows[i].Reduction, fig.Rows[i].Name, fig.Rows[i-1].Reduction, fig.Rows[i-1].Name))
		}
	}
	for _, r := range res.ADF {
		if with, without := r.RMSEWithLE.Overall(), r.RMSENoLE.Overall(); !(with < without) {
			fails = append(fails, fmt.Sprintf("seed %d: %s RMSE with LE %.3f m not below %.3f m without",
				c.Seed, r.Name, with, without))
		}
	}
	return fails
}

// presentNodeSeconds is the expected number of node-seconds nodes spend
// on the grid: every tick under no churn, otherwise discounted by the
// probability a(t) = π(1 − (1−l−r)^t) that a node is away at tick t,
// with π = l/(l+r) the stationary away share (every node starts present).
func presentNodeSeconds(c experiment.Config, nodes int) float64 {
	ticks := int(c.Duration / c.SamplePeriod)
	if c.Churn == nil {
		return float64(nodes * ticks)
	}
	l, r := c.Churn.LeaveProb, c.Churn.RejoinProb
	pi := l / (l + r)
	var sum float64
	for t := 1; t <= ticks; t++ {
		sum += 1 - pi*(1-math.Pow(1-l-r, float64(t)))
	}
	return float64(nodes) * sum
}

// factorIndex returns the index of factor f in fs, or -1.
func factorIndex(fs []float64, f float64) int {
	for i, v := range fs {
		if v == f {
			return i
		}
	}
	return -1
}

// withLEP99 returns the with-LE P99 error of the named ADF run.
func withLEP99(p experiment.PercentilesResult, name string) float64 {
	for _, row := range p.Rows {
		if row.Name == name && row.WithLE {
			return row.P99
		}
	}
	return math.NaN()
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
