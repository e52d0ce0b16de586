package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"github.com/mobilegrid/adf/internal/experiment"
	"github.com/mobilegrid/adf/internal/obs"
)

// Noise handling for the -regress gate. Allocation counts are
// (near-)deterministic, so they get tight absolute slack; throughput is
// noisy, so it is measured best-of-regressPasses and compared with the
// -regress-tol fractional band — and only when the committed baseline
// was recorded on a matching CPU configuration, otherwise the
// comparison is printed as advisory instead of enforced.
const (
	regressPasses = 3
	// regressMaxPerGroup keeps the gate CI-sized: baseline scale points
	// above this population are skipped (the small points catch per-tick
	// cost regressions; the large ones only add minutes of runtime).
	regressMaxPerGroup = 200
	// steadyAllocSlack is the absolute allocs/tick headroom over the
	// committed steady-state number before the gate fails.
	steadyAllocSlack = 0.5
	// totalAllocSlack is the absolute allocs/tick headroom over the
	// committed whole-run number (which amortizes setup, so small
	// scheduling differences move it slightly).
	totalAllocSlack = 1.0
	// overheadSlackPoints is the percentage-point band over the
	// committed per-scale obs overhead (or the budget, whichever is
	// larger) before the gate fails.
	overheadSlackPoints = 2.0
)

// runRegress is the perf-regression gate behind `make bench-regress`:
// it re-measures the hot-path and obs-overhead numbers at the committed
// baselines' own protocol (duration and seed from the JSON files) and
// fails if the current tree is slower or hungrier than the
// committed BENCH_hotpath.json / BENCH_obs.json allow. tol is the
// fractional throughput band (0.25 = fail below 75% of baseline);
// obsBudget is the obs layer's overhead budget in percent.
func runRegress(w io.Writer, hotpathPath, obsPath string, tol, obsBudget float64) error {
	var failures []string

	hp, err := loadHotpathBaseline(hotpathPath)
	if err != nil {
		return err
	}
	fails, err := regressHotpath(w, hp, tol)
	if err != nil {
		return err
	}
	failures = append(failures, fails...)

	ob, err := loadObsBaseline(obsPath)
	if err != nil {
		return err
	}
	fails, err = regressObs(w, ob, obsBudget)
	if err != nil {
		return err
	}
	failures = append(failures, fails...)

	if len(failures) > 0 {
		return fmt.Errorf("perf regression vs committed baselines:\n  %s", strings.Join(failures, "\n  "))
	}
	_, err = fmt.Fprintf(w, "bench-regress: no regression vs %s and %s\n", hotpathPath, obsPath)
	return err
}

func loadHotpathBaseline(path string) (*HotpathReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	var rep HotpathReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	return &rep, nil
}

func loadObsBaseline(path string) (*ObsReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	var rep ObsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	return &rep, nil
}

// cpuComparable reports whether throughput numbers measured now can be
// held against the baseline's: same CPU count and scheduler limit.
func cpuComparable(m RunMeta) bool {
	return m.NumCPU == runtime.NumCPU() && m.GOMAXPROCS == runtime.GOMAXPROCS(0)
}

// regressConfig rebuilds the measurement config a baseline report was
// recorded under.
func regressConfig(duration float64, seed int64) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Duration = duration
	cfg.Seed = seed
	return cfg
}

// regressHotpath re-measures every CI-sized scale point of the hotpath
// baseline, best-of-regressPasses, and returns gate failures.
func regressHotpath(w io.Writer, base *HotpathReport, tol float64) ([]string, error) {
	comparable := cpuComparable(base.Meta)
	if !comparable {
		fmt.Fprintf(w, "hotpath: baseline from num_cpu=%d gomaxprocs=%d, here %d/%d: throughput advisory only\n",
			base.Meta.NumCPU, base.Meta.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	var failures []string
	for _, run := range base.Runs {
		for _, bs := range run.Scales {
			if bs.PerGroup > regressMaxPerGroup {
				continue
			}
			cfg := regressConfig(base.DurationSeconds, base.Seed)
			cfg.PerGroup = bs.PerGroup
			best := experiment.HotpathStats{AllocsPerTick: -1}
			for pass := 0; pass < regressPasses; pass++ {
				stats, err := cfg.MeasureHotpath()
				if err != nil {
					return nil, fmt.Errorf("regress %s per-group %d: %w", run.RNGMode, bs.PerGroup, err)
				}
				if stats.TicksPerSec > best.TicksPerSec {
					best.TicksPerSec = stats.TicksPerSec
					best.Nodes = stats.Nodes
				}
				// Allocation counts take the minimum across passes: any
				// single pass at the committed floor proves the code path
				// still achieves it.
				if best.AllocsPerTick < 0 || stats.AllocsPerTick < best.AllocsPerTick {
					best.AllocsPerTick = stats.AllocsPerTick
				}
				if pass == 0 || stats.SteadyAllocsPerTick < best.SteadyAllocsPerTick {
					best.SteadyAllocsPerTick = stats.SteadyAllocsPerTick
				}
			}
			point := fmt.Sprintf("%s @ %d nodes", run.RNGMode, best.Nodes)
			ratio := best.TicksPerSec / bs.TicksPerSec
			fmt.Fprintf(w, "hotpath %-28s %9.1f ticks/sec (%.2fx of baseline), %5.2f/%5.2f allocs/tick vs %5.2f/%5.2f\n",
				point+":", best.TicksPerSec, ratio,
				best.AllocsPerTick, best.SteadyAllocsPerTick,
				bs.AllocsPerTick, bs.SteadyAllocsPerTick)
			if comparable && ratio < 1-tol {
				failures = append(failures, fmt.Sprintf(
					"%s: %.1f ticks/sec is below %.0f%% of baseline %.1f",
					point, best.TicksPerSec, 100*(1-tol), bs.TicksPerSec))
			}
			if best.SteadyAllocsPerTick > bs.SteadyAllocsPerTick+steadyAllocSlack {
				failures = append(failures, fmt.Sprintf(
					"%s: steady allocs/tick %.2f exceeds baseline %.2f (+%.1f slack)",
					point, best.SteadyAllocsPerTick, bs.SteadyAllocsPerTick, steadyAllocSlack))
			}
			if best.AllocsPerTick > bs.AllocsPerTick+totalAllocSlack {
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/tick %.2f exceeds baseline %.2f (+%.1f slack)",
					point, best.AllocsPerTick, bs.AllocsPerTick, totalAllocSlack))
			}
		}
	}
	return failures, nil
}

// obsRegressDuration lengthens the overhead measurement window at
// small scales. The committed protocol (300 ticks) finishes in tens of
// milliseconds at the 140-node point, where a single scheduler
// preemption moves the disabled/enabled ratio by ten percentage points
// — far past any bar worth gating on. Scaling ticks inversely with
// population keeps every pass around a second of wall clock, so the
// paired ratio is dominated by per-tick cost rather than noise; the
// ratio is a per-tick property, so it does not require the baseline's
// exact tick count the way the throughput comparison does.
func obsRegressDuration(base float64, perGroup int) float64 {
	d := base * 5000 / float64(perGroup)
	if d < base {
		return base
	}
	if d > 30*base {
		return 30 * base
	}
	return d
}

// regressObs re-measures the obs layer's overhead at the baseline's
// CI-sized scale points and returns gate failures. The bar for each
// scale is max(budget, committed overhead) + overheadSlackPoints: the
// gate catches new instrumentation cost without flaking on the noise
// floor of an already-passing point. Overhead is a ratio of two short
// measurements, so it is far noisier than the throughput numbers —
// hence the same obsBenchPasses alternating passes the baseline
// recorder uses (not the cheaper regressPasses) over the widened
// obsRegressDuration window.
func regressObs(w io.Writer, base *ObsReport, obsBudget float64) ([]string, error) {
	wasEnabled := obs.Enabled()
	defer obs.SetEnabled(wasEnabled)
	var failures []string
	for _, bs := range base.Scales {
		if bs.PerGroup > regressMaxPerGroup {
			continue
		}
		cfg := regressConfig(obsRegressDuration(base.DurationSeconds, bs.PerGroup), base.Seed)
		cfg.PerGroup = bs.PerGroup
		var disabled, enabled float64
		for pass := 0; pass < obsBenchPasses; pass++ {
			for _, on := range []bool{false, true} {
				obs.SetEnabled(on)
				stats, err := cfg.MeasureHotpath()
				if err != nil {
					obs.SetEnabled(wasEnabled)
					return nil, fmt.Errorf("regress obs per-group %d: %w", bs.PerGroup, err)
				}
				if on && stats.TicksPerSec > enabled {
					enabled = stats.TicksPerSec
				}
				if !on && stats.TicksPerSec > disabled {
					disabled = stats.TicksPerSec
				}
			}
		}
		obs.SetEnabled(wasEnabled)
		overhead := 0.0
		if disabled > 0 {
			overhead = (disabled - enabled) / disabled * 100
			if overhead < 0 {
				overhead = 0
			}
		}
		bar := obsBudget
		if bs.OverheadPercent > bar {
			bar = bs.OverheadPercent
		}
		bar += overheadSlackPoints
		fmt.Fprintf(w, "obs %8d nodes: overhead %.2f%% (baseline %.2f%%, bar %.2f%%)\n",
			bs.Nodes, overhead, bs.OverheadPercent, bar)
		if overhead > bar {
			failures = append(failures, fmt.Sprintf(
				"obs @ %d nodes: overhead %.2f%% exceeds %.2f%% (baseline %.2f%% / budget %.0f%% + %.0f-point band)",
				bs.Nodes, overhead, bar, bs.OverheadPercent, obsBudget, overheadSlackPoints))
		}
	}
	return failures, nil
}
