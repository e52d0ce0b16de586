package main

import (
	"fmt"
	"strings"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/experiment"
)

// workload is one set of inputs the benchmark runs. Exactly one of sim
// and rti is set: simulation workloads drive experiment.Config, the RTI
// workload drives hla.Server and hla.Client over loopback TCP.
type workload struct {
	name string
	why  string
	sim  *simSpec
	rti  *rtiSpec
}

// simSpec sizes a simulation workload. One run executes seeds
// consecutive seeds, starting at the run's seed, one RunUncached each.
type simSpec struct {
	seeds        int
	perGroup     int // nodes per Table-1 group; 28 groups
	duration     float64
	keyed        bool
	shardWorkers int
	workers      int
	churn        *experiment.ChurnConfig
	factors      []float64
}

// rtiSpec sizes the RTI workload: steps logical seconds in lockstep, in
// each of which every one of nodes nodes sends an LU with probability
// rate.
type rtiSpec struct {
	nodes int
	steps int
	rate  float64
}

// workloads lists every workload in report order. Load comes from at
// most two goroutines (the campaign pool or the shard workers, or the
// two federates) and at most two TCP connections.
var workloads = []workload{
	{
		name: "paper-campaign",
		why:  "the paper's 140-node Table-1 campaign over 16 seeds: per-tick fixed costs, observer fan-out and reclustering dominate; the network is never touched",
		sim: &simSpec{
			seeds:    16,
			duration: 1800,
			workers:  2,
			factors:  []float64{0.75, 1.0, 1.25},
		},
	},
	{
		name: "scale-20k",
		why:  "20,020 nodes on the keyed sharded pipeline for 300 s: steady-state tick throughput at a mid working set plus a large end-of-run sort",
		sim: &simSpec{
			seeds:        1,
			perGroup:     715,
			duration:     300,
			keyed:        true,
			shardWorkers: 2,
			workers:      1,
			factors:      []float64{1.0},
		},
	},
	{
		name: "scale-100k-churn",
		why:  "100,016 nodes with leave/rejoin churn for 90 s: working set far beyond the CPU caches, the forget/re-learn path, stride-capped error summaries, setup as a visible share",
		sim: &simSpec{
			seeds:        1,
			perGroup:     3572,
			duration:     90,
			keyed:        true,
			shardWorkers: 2,
			workers:      1,
			churn:        &experiment.ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3},
			factors:      []float64{1.0},
		},
	},
	{
		name: "rti-lockstep",
		why:  "a seeded ADF-rate LU stream through the TCP RTI in closed-loop lockstep: wire codec and per-message RTI cost, which no simulation touches",
		rti: &rtiSpec{
			nodes: 1008,
			steps: 400,
			rate:  405.0 / 1008,
		},
	},
}

// smoked returns the workload shrunk to a size that finishes in about a
// second, for tests and -smoke. It keeps every code path: the same RNG
// class, pipeline shape, churn and DTH factors. The paper campaign keeps
// its 1800 s horizon: at 140 nodes a shorter run can leave the LE
// behind the no-LE broker at 1.25av, which the output checks reject.
func (w workload) smoked() workload {
	if w.sim != nil {
		s := *w.sim
		s.seeds = min(s.seeds, 2)
		if s.perGroup != 0 {
			s.perGroup = 20
			s.duration = min(s.duration, 120)
		}
		w.sim = &s
	}
	if w.rti != nil {
		r := *w.rti
		r.steps = 20
		w.rti = &r
	}
	return w
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// config returns the experiment configuration of one seed of the
// workload: the paper's defaults with the workload's population, RNG
// class, pipeline shape, churn and horizon.
func (s simSpec) config(seed int64) experiment.Config {
	c := experiment.DefaultConfig()
	c.Seed = seed
	c.PerGroup = s.perGroup
	c.Duration = s.duration
	c.Workers = s.workers
	c.ShardWorkers = s.shardWorkers
	c.Churn = s.churn
	c.DTHFactors = append([]float64(nil), s.factors...)
	if s.keyed {
		c.RNGMode = experiment.RNGKeyed
	}
	return c
}

// nodes returns the workload's population size.
func (s simSpec) nodes() int {
	perGroup := s.perGroup
	if perGroup == 0 {
		perGroup = campus.PerGroup
	}
	return len(campus.PopulationN(campus.New(), perGroup))
}

// describe is a one-line summary of a workload's size for the report.
func (w workload) describe(seed int64) string {
	if w.rti != nil {
		return fmt.Sprintf("%d nodes at %.3f LU/node/s, %d lockstep steps, seed %d",
			w.rti.nodes, w.rti.rate, w.rti.steps, seed)
	}
	s := w.sim
	seeds := fmt.Sprintf("seed %d", seed)
	if s.seeds > 1 {
		seeds = fmt.Sprintf("seeds %d..%d", seed, seed+int64(s.seeds)-1)
	}
	return fmt.Sprintf("%d nodes, %g s horizon, %s", s.nodes(), s.duration, seeds)
}
