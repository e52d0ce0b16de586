package experiment

import (
	"fmt"
	"runtime"

	"github.com/mobilegrid/adf/internal/engine"
)

// The campaign layer schedules independent simulations — the ideal
// baseline, each DTH factor, each seed, each scale point — on a bounded
// worker pool. Every figure of the paper derives from one campaign's
// Results.

// workers resolves the campaign worker-pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runTask names one independent simulation of a campaign.
type runTask struct {
	label string
	cfg   Config
	mk    filterFactory
}

// runAll executes tasks on a bounded worker pool and returns their runs
// in task order. Each run owns private sim.Streams derived from its own
// config seed and a private simulator, so the outcome is bit-for-bit
// identical to sequential execution regardless of the pool size.
func runAll(workers int, tasks []runTask) ([]*Run, error) {
	out := make([]*Run, len(tasks))
	g := engine.NewGroup(workers)
	for i, t := range tasks {
		g.Go(func() error {
			r, err := t.cfg.runFilter(t.mk)
			if err != nil {
				if t.label != "" {
					return fmt.Errorf("%s: %w", t.label, err)
				}
				return err
			}
			out[i] = r
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// campaignTasks lists the campaign's independent runs: the ideal baseline
// plus one ADF run per DTH factor.
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
// concurrently on the worker pool (Config.Workers). Each call simulates
// afresh; derive every figure from one Results rather than running the
// campaign once per figure.
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
