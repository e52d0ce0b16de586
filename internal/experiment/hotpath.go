package experiment

import (
	"runtime"
	"time"

	"github.com/mobilegrid/adf/internal/campus"
)

// HotpathStats is one scale point of the hot-path benchmark: end-to-end
// wall-clock throughput and allocation rate of a full simulation, plus
// the steady-state allocation rate measured past a warmup boundary.
type HotpathStats struct {
	Nodes        int `json:"nodes"`
	Ticks        int `json:"ticks"`
	WarmupTicks  int `json:"warmup_ticks"`
	ShardWorkers int `json:"shard_workers,omitempty"`

	ElapsedMS   float64 `json:"elapsed_ms"`
	NsPerTick   float64 `json:"ns_per_tick"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	// BuildMS, TickMS and FinalizeMS split ElapsedMS into its phases:
	// building the pipeline, the tick loop (node births included, on the
	// first tick) and publishing the error quantiles.
	BuildMS    float64 `json:"build_ms,omitempty"`
	TickMS     float64 `json:"tick_ms,omitempty"`
	FinalizeMS float64 `json:"finalize_ms,omitempty"`
	// AllocsPerTick averages runtime.MemStats.Mallocs over the whole run,
	// setup and one-time births (estimators, cluster growth) included.
	AllocsPerTick float64 `json:"allocs_per_tick"`
	// SteadyAllocsPerTick averages Mallocs over the ticks past the warmup
	// boundary only — the zero-allocation steady-state claim is about
	// this number.
	SteadyAllocsPerTick float64 `json:"steady_allocs_per_tick"`
	TotalLU             float64 `json:"total_lu"`
}

// MeasureHotpath executes one ADF run (DTH factor 1.0) under c — in the
// campus partition, or the region partition when c.ShardWorkers > 0 —
// and reports its end-to-end throughput: virtual ticks per wall-clock
// second, nanoseconds per tick and heap allocations per tick
// (runtime.MemStats.Mallocs deltas). The whole simulation is timed —
// setup, the tick loop, the wait in Close for the lane stages to finish
// and the quantile selection — matching the protocol of the
// BENCH_hotpath.json baselines; the tick loop is driven manually so a
// second MemStats read at the warmup boundary — half the run, capped at
// 300 ticks — isolates SteadyAllocsPerTick from one-time births.
func (c Config) MeasureHotpath() (HotpathStats, error) {
	world := campus.New()
	perGroup := c.PerGroup
	if perGroup == 0 {
		perGroup = campus.PerGroup
	}
	nodes := len(campus.PopulationN(world, perGroup))
	ticks := int(c.Duration / c.SamplePeriod)
	warmup := ticks / 2
	if warmup > 300 {
		warmup = 300
	}

	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now() //adf:allow determinism — measures wall-clock throughput, not simulation state

	loop, run, err := c.buildPipeline(c.adfFactory(1.0))
	if err != nil {
		return HotpathStats{}, err
	}
	defer loop.Close()
	built := time.Since(start) //adf:allow determinism — phase split of the wall-clock measurement

	now := 0.0
	for i := 0; i < ticks; i++ {
		if i == warmup {
			runtime.ReadMemStats(&mid)
		}
		now += c.SamplePeriod
		if err := loop.Tick(now); err != nil {
			return HotpathStats{}, err
		}
	}
	// The lane stage may trail the world stage: Close waits for it, so
	// the sinks are complete before they are read.
	if err := loop.Close(); err != nil {
		return HotpathStats{}, err
	}
	runtime.ReadMemStats(&after)
	ticked := time.Since(start) //adf:allow determinism — phase split of the wall-clock measurement
	// Publishing the error quantiles stays inside the timed window (the
	// baseline protocol times the end of the run) but outside the
	// allocation windows. No sort runs in the window: the quantiles are
	// selected in place over the recorded non-zero samples.
	run.publishQuantiles()
	elapsed := time.Since(start) //adf:allow determinism — measures wall-clock throughput

	steady := 0.0
	if ticks > warmup {
		steady = float64(after.Mallocs-mid.Mallocs) / float64(ticks-warmup)
	}
	return HotpathStats{
		Nodes:               nodes,
		Ticks:               ticks,
		WarmupTicks:         warmup,
		ShardWorkers:        c.ShardWorkers,
		ElapsedMS:           ms(elapsed),
		NsPerTick:           float64(elapsed.Nanoseconds()) / float64(ticks),
		TicksPerSec:         float64(ticks) / elapsed.Seconds(),
		BuildMS:             ms(built),
		TickMS:              ms(ticked - built),
		FinalizeMS:          ms(elapsed - ticked),
		AllocsPerTick:       float64(after.Mallocs-before.Mallocs) / float64(ticks),
		SteadyAllocsPerTick: steady,
		TotalLU:             run.TotalLUs(),
	}, nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
