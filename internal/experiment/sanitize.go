package experiment

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/engine"
)

// CompareShardDigests builds the campaign's ADF pipeline in the region
// partition once per entry of workerCounts and drives all of them in tick
// lockstep, comparing engine.Pipeline.StateDigest — node positions,
// broker beliefs, shard membership and per-shard cluster statistics —
// after every tick. Workers=1 is the sequential sharded reference, so a
// list like {1, 4, NumCPU} proves the shard merge is deterministic at
// any parallelism. The first divergence is reported with its tick; the
// number of compared ticks is returned. Under -tags adfcheck every tick
// additionally runs the sanitizer invariants, which is how
// TestShardDigestGate (`make check-sharded`) exercises the sharded
// stack. StateDigest waits for each pipeline's trailing lane stages, so
// every digest covers the brokers of the tick just computed; closing the
// pipelines at the end still surfaces an observer error from the last
// tick.
func (c Config) CompareShardDigests(workerCounts []int) (int, error) {
	if len(workerCounts) < 2 {
		return 0, fmt.Errorf(
			"experiment: CompareShardDigests needs at least two worker counts, got %v", workerCounts)
	}
	pipes := make([]*engine.Pipeline, len(workerCounts))
	for i, w := range workerCounts {
		if w < 1 {
			return 0, fmt.Errorf("experiment: shard worker count %d, want >= 1", w)
		}
		cfg := c
		cfg.ShardWorkers = w
		p, _, err := cfg.buildPipeline(cfg.adfFactory(cfg.DTHFactors[0]))
		if err != nil {
			return 0, err
		}
		defer p.Close()
		pipes[i] = p
	}

	ticks := 0
	for t := c.SamplePeriod; t <= c.Duration; t += c.SamplePeriod {
		for i, p := range pipes {
			if err := p.Tick(t); err != nil {
				return ticks, fmt.Errorf(
					"experiment: %d-worker sharded tick %v: %w", workerCounts[i], t, err)
			}
		}
		ticks++
		ref := pipes[0].StateDigest()
		for i, p := range pipes[1:] {
			if d := p.StateDigest(); d != ref {
				return ticks, fmt.Errorf(
					"experiment: shard digests diverge at tick %v: %d-worker %#016x, %d-worker %#016x",
					t, workerCounts[0], ref, workerCounts[i+1], d)
			}
		}
	}
	for i, p := range pipes {
		if err := p.Close(); err != nil {
			return ticks, fmt.Errorf("experiment: %d-worker sharded pipeline: %w", workerCounts[i], err)
		}
	}
	return ticks, nil
}
