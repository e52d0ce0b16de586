package experiment

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/oracle"
)

// CompareShardDigests simulates the campaign's pass — the ideal
// baseline and one ADF lane per DTH factor — in the region partition
// once per entry of workerCounts, all in tick lockstep. After every
// tick it holds each pass to the run oracle and compares their
// engine.Pipeline.StateDigest — node positions, broker beliefs, shard
// membership and per-shard cluster statistics. Workers=1 is the
// sequential sharded reference, so a list like {1, 4, NumCPU} proves
// the shard merge is deterministic at any parallelism. The first
// divergence or violation is reported with its tick; the number of
// compared ticks is returned.
func (c Config) CompareShardDigests(workerCounts []int) (int, error) {
	if len(workerCounts) < 2 {
		return 0, fmt.Errorf(
			"experiment: CompareShardDigests needs at least two worker counts, got %v", workerCounts)
	}
	cfgs := make([]Config, len(workerCounts))
	for i, w := range workerCounts {
		if w < 1 {
			return 0, fmt.Errorf("experiment: shard worker count %d, want >= 1", w)
		}
		cfgs[i] = c
		cfgs[i].ShardWorkers = w
	}
	_, ticks, err := lockstep(cfgs)
	return ticks, err
}

// lockstep simulates the campaign pass of every configuration in tick
// lockstep. After every tick it settles each pass, holds it to the run
// oracle (oracle.Check) and, given more than one configuration,
// requires their StateDigests to agree bit for bit, so the
// configurations may differ only in what never changes a result:
// Workers, and ShardWorkers among values of at least 1. It returns each
// configuration's runs, finished as Config.Run finishes them, and the
// number of ticks run.
func lockstep(cfgs []Config) ([][]*Run, int, error) {
	pipes := make([]*engine.Pipeline, len(cfgs))
	runs := make([][]*Run, len(cfgs))
	for i, c := range cfgs {
		p, r, err := buildPass(c.campaignTasks())
		if err != nil {
			return nil, 0, err
		}
		defer p.Close()
		pipes[i], runs[i] = p, r
	}
	c := cfgs[0]
	ticks := 0
	for k := range engine.Ticks(c.SamplePeriod, c.Duration) {
		t := engine.TickTime(c.SamplePeriod, k+1)
		var ref uint64
		for i, p := range pipes {
			if err := p.Tick(t); err != nil {
				return nil, ticks, fmt.Errorf("experiment: %s, tick %v: %w", cfgs[i].schedule(), t, err)
			}
			p.Settle()
			if err := oracle.Check(p); err != nil {
				return nil, ticks, fmt.Errorf("experiment: %s, tick %v: %w", cfgs[i].schedule(), t, err)
			}
			if len(pipes) == 1 {
				continue
			}
			if d := p.StateDigest(); i == 0 {
				ref = d
			} else if d != ref {
				return nil, ticks, fmt.Errorf("experiment: state digests diverge at tick %v: %s %#016x, %s %#016x",
					t, c.schedule(), ref, cfgs[i].schedule(), d)
			}
		}
		ticks++
	}
	for i, p := range pipes {
		p.Close()
		if err := finishPass(p, runs[i], cfgs[i].workers()); err != nil {
			return nil, ticks, err
		}
	}
	return runs, ticks, nil
}

// schedule names the execution schedule of c's pass.
func (c Config) schedule() string {
	return fmt.Sprintf("%d shard workers, %d workers", c.ShardWorkers, c.Workers)
}
