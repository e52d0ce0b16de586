package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/engine"
)

// The campaign layer schedules a campaign's simulations — the ideal
// baseline, each DTH factor, each seed, each scale point — on a bounded
// worker pool. Tasks that share a world (the same Config up to the lane
// fields) form one pass: a pass builds the world once and runs every
// task in it as a lane of one pipeline, whose lane stages share the
// CPUs with its world stage. Every figure of the paper derives from one
// campaign's Results.

// workers resolves the campaign worker-pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// passWorkers is the parallelism of one pass: the campaign workers or
// the shard workers, whichever is larger. Above 1 the pass's lane
// stages trail its world stage (engine.Pipeline.Concurrent), and its
// end-of-run quantile selections run side by side on as many workers.
func (c Config) passWorkers() int {
	return max(c.workers(), c.ShardWorkers)
}

// runTask names one simulation of a campaign.
type runTask struct {
	label string
	cfg   Config
	mk    filterFactory
}

// worldKey returns the part of c that fixes a simulation's world —
// population, gateways, churn, horizon and partition: c with the lane
// fields DTHFactors, Estimator, Smoothing, ADF and Workers cleared.
func (c Config) worldKey() Config {
	c.DTHFactors, c.Estimator, c.Smoothing, c.ADF, c.Workers = nil, "", 0, core.Config{}, 0
	return c
}

// sameWorld reports whether two tasks' configurations share a world key,
// comparing Burst and Churn by value.
func sameWorld(a, b Config) bool {
	return reflect.DeepEqual(a.worldKey(), b.worldKey())
}

// planPasses groups tasks by world, in order of first appearance, and
// returns each pass's task indices: a world is one pass.
func planPasses(tasks []runTask) [][]int {
	var passes [][]int
	for i, t := range tasks {
		w := 0
		for w < len(passes) && !sameWorld(tasks[passes[w][0]].cfg, t.cfg) {
			w++
		}
		if w == len(passes) {
			passes = append(passes, nil)
		}
		passes[w] = append(passes[w], i)
	}
	return passes
}

// runAll executes tasks as passes on a bounded worker pool and returns
// their runs in task order. Each lane owns private sim.Streams derived
// from its config seed, so the outcome is bit-for-bit identical to
// running every task alone and in sequence, whatever the pool size and
// whether a pass's lane stages run inline or trail its world stage.
func runAll(workers int, tasks []runTask) ([]*Run, error) {
	runs, _, err := runAllTimed(workers, tasks)
	return runs, err
}

// runAllTimed is runAll that also returns each task's share of its
// pass's wall-clock time: the pass's wall time over its lane count.
func runAllTimed(workers int, tasks []runTask) ([]*Run, []time.Duration, error) {
	out := make([]*Run, len(tasks))
	wall := make([]time.Duration, len(tasks))
	g := engine.NewGroup(workers)
	for _, pass := range planPasses(tasks) {
		g.Go(func() error {
			lanes := make([]runTask, len(pass))
			for k, i := range pass {
				lanes[k] = tasks[i]
			}
			start := time.Now() //adf:allow determinism — wall-clock share per lane, never simulation state
			runs, err := runPass(lanes)
			if err != nil {
				return err
			}
			share := time.Since(start) / time.Duration(len(pass)) //adf:allow determinism — wall-clock share per lane
			for k, i := range pass {
				out[i], wall[i] = runs[k], share
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, nil, err
	}
	return out, wall, nil
}

// campaignTasks lists the campaign's runs: the ideal baseline plus one
// ADF run per DTH factor. They share one world.
func (c Config) campaignTasks() []runTask {
	tasks := []runTask{{label: "ideal", cfg: c, mk: idealFactory}}
	for _, factor := range c.DTHFactors {
		tasks = append(tasks, runTask{
			label: fmt.Sprintf("adf %.2fav", factor),
			cfg:   c,
			mk:    c.adfFactory(factor),
		})
	}
	return tasks
}

// Run executes the core campaign that figures 4–9 and the energy budget
// are derived from: the ideal baseline plus one ADF run per DTH factor,
// as the lanes of one pass over one world. At Workers above 1 the four
// lane stages trail the world stage on goroutines of their own. Each
// call simulates afresh; derive every figure from one Results rather
// than running the campaign once per figure.
func (c Config) Run() (*Results, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	runs, err := runAll(c.workers(), c.campaignTasks())
	if err != nil {
		return nil, err
	}
	return &Results{Config: c, Ideal: runs[0], ADF: runs[1:]}, nil
}

// RunUncached is Run. It remains only because the repository benchmark
// harness under benchmark/ compiles against it.
func (c Config) RunUncached() (*Results, error) { return c.Run() }
