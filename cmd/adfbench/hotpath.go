package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/experiment"
)

// defaultHotpathScales are the population scale points the hot-path
// benchmark measures by default: the paper's Table-1 population (140
// nodes) plus the scale-ups. Override with -scales (e.g.
// "140,1k,5k,200k,1m").
const defaultHotpathScales = "140,1k,5k,20k,50k"

// hotpathKeyedOnlyNodes is the population size at which the default
// mode sweep stops measuring the sequential RNG: sequential streams
// need the serial churn prepass, which dominates the tick loop at large
// scales and tells us nothing the small points have not already shown.
// An explicit -rng sequential overrides the cutoff.
const hotpathKeyedOnlyNodes = 200_000

// hotpathBaselines records the pre-optimization throughput in ticks/sec,
// measured at commit 295e3d8 (before the hot-path work: per-call cluster
// statistics, hashed per-tick lookups, allocating tick loop) with exactly
// the protocol runHotpath uses at its reference settings: one full ADF run
// at DTH factor 1.0, Duration 300 s, seed 1, sequential RNG mode, setup
// included. Speedups in BENCH_hotpath.json are relative to these numbers,
// so they are only reported when the current run matches that protocol.
// Keys are PerGroup values (28 nodes per unit).
var hotpathBaselines = map[int]float64{
	5:   5379.5,
	36:  736.4,
	179: 130.9,
}

// hotpathSkipSequential reports whether the default mode sweep (no
// explicit -rng) drops the sequential RNG at this scale point: pg
// groups of `groups` nodes at or beyond the keyed-only cutoff.
func hotpathSkipSequential(defaultModes bool, mode string, pg, groups int) bool {
	return defaultModes && mode == experiment.RNGSequential && pg*groups >= hotpathKeyedOnlyNodes
}

// hotpathBaselineProtocol reports whether cfg matches the settings the
// baselines were recorded under.
func hotpathBaselineProtocol(cfg experiment.Config) bool {
	return cfg.Duration == 300 && cfg.Seed == 1 && cfg.SamplePeriod == 1 &&
		len(cfg.DTHFactors) == 1 && cfg.DTHFactors[0] == 1.0
}

// parseScales converts a comma-separated node-count list ("140,1k,5k,1m";
// k = thousand, m = million) into PerGroup values: the population is
// built as groups of 28 (one node per Table-1 (region, pattern, type)
// group and unit of PerGroup), so each requested count rounds up to the
// next multiple of the group count.
func parseScales(s string) ([]int, error) {
	groups := len(campus.PopulationN(campus.New(), 1))
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.ToLower(tok))
		if tok == "" {
			continue
		}
		mult := 1.0
		switch {
		case strings.HasSuffix(tok, "k"):
			mult, tok = 1e3, strings.TrimSuffix(tok, "k")
		case strings.HasSuffix(tok, "m"):
			mult, tok = 1e6, strings.TrimSuffix(tok, "m")
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil || v <= 0 || math.IsInf(v*mult, 0) {
			return nil, fmt.Errorf("bad scale %q (want node counts like 140, 5k, 1m)", tok)
		}
		out = append(out, int(math.Ceil(v*mult/float64(groups))))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -scales list")
	}
	return out, nil
}

// HotpathReport is the -hotpath output: per-scale throughput and
// allocation rate of the per-tick pipeline under each measured RNG mode,
// with speedups against the recorded pre-optimization baselines when the
// protocol matches.
type HotpathReport struct {
	// Meta records the environment the report was produced in; its
	// rng_mode is empty because the modes are recorded per run below.
	Meta            RunMeta `json:"meta"`
	DurationSeconds float64 `json:"duration_seconds"`
	Seed            int64   `json:"seed"`
	DTHFactor       float64 `json:"dth_factor"`
	// BaselineCommit identifies the revision the baselines were measured at.
	BaselineCommit string `json:"baseline_commit"`
	// Note carries measurement caveats (single-CPU hosts).
	Note string       `json:"note,omitempty"`
	Runs []HotpathRun `json:"runs"`
}

// HotpathRun is one RNG mode's scale sweep.
type HotpathRun struct {
	RNGMode string         `json:"rng_mode"`
	Scales  []HotpathScale `json:"scales"`
}

// HotpathScale is one population scale point.
type HotpathScale struct {
	// PerGroup is the population scale: nodes per (region, pattern, type)
	// group of Table 1.
	PerGroup int `json:"per_group"`
	experiment.HotpathStats
	// BaselineTicksPerSec and Speedup compare against the recorded
	// pre-optimization baseline; both are 0 when the run's protocol or
	// RNG mode differs from the baseline's.
	BaselineTicksPerSec float64 `json:"baseline_ticks_per_sec,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
}

// runHotpath measures the tick pipeline at each scale point under each
// RNG mode — both modes when cfg.RNGMode is empty, the requested one
// otherwise — and writes the JSON report to path (and a per-scale
// summary to w). With no explicit -rng, scale points of
// hotpathKeyedOnlyNodes nodes or more are measured keyed-only; the
// trimmed scales are noted in the report meta. A positive allocBudget
// fails the invocation, after writing the report, if any scale's steady
// allocs/tick exceeds it.
func runHotpath(w io.Writer, cfg experiment.Config, path, scales string, allocBudget float64) error {
	perGroups, err := parseScales(scales)
	if err != nil {
		return err
	}
	groups := len(campus.PopulationN(campus.New(), 1))
	modes := []string{experiment.RNGSequential, experiment.RNGKeyed}
	defaultModes := cfg.RNGMode == ""
	if !defaultModes {
		modes = []string{cfg.RNGMode}
	}
	meta := runMeta(cfg)
	meta.RNGMode = ""
	if defaultModes {
		var trimmed []string
		for _, pg := range perGroups {
			if hotpathSkipSequential(defaultModes, experiment.RNGSequential, pg, groups) {
				trimmed = append(trimmed, strconv.Itoa(pg*groups))
			}
		}
		if len(trimmed) > 0 {
			meta.RNGPolicy = fmt.Sprintf(
				"scales of %d+ nodes measured with keyed RNG only (%s nodes); pass -rng sequential to force the serial churn prepass at those scales",
				hotpathKeyedOnlyNodes, strings.Join(trimmed, ", "))
		}
	}
	report := HotpathReport{
		Meta:            meta,
		DurationSeconds: cfg.Duration,
		Seed:            cfg.Seed,
		DTHFactor:       cfg.DTHFactors[0],
		BaselineCommit:  "295e3d8",
	}
	if meta.NumCPU == 1 {
		report.Note = "recorded on a single-CPU host (NumCPU=1): worker parallelism cannot exceed 1, so sharded and keyed numbers measure algorithmic cost, not parallel speedup"
	}
	var over []string
	for _, mode := range modes {
		run := HotpathRun{RNGMode: mode}
		comparable := hotpathBaselineProtocol(cfg) && mode == experiment.RNGSequential
		for _, pg := range perGroups {
			if hotpathSkipSequential(defaultModes, mode, pg, groups) {
				continue
			}
			c := cfg
			c.PerGroup = pg
			c.RNGMode = mode
			stats, err := c.MeasureHotpath()
			if err != nil {
				return fmt.Errorf("%s per-group %d: %w", mode, pg, err)
			}
			s := HotpathScale{PerGroup: pg, HotpathStats: stats}
			if base, ok := hotpathBaselines[pg]; ok && comparable {
				s.BaselineTicksPerSec = base
				s.Speedup = stats.TicksPerSec / base
			}
			run.Scales = append(run.Scales, s)
			if allocBudget > 0 && stats.SteadyAllocsPerTick > allocBudget {
				over = append(over, fmt.Sprintf("%s @ %d nodes: %.2f", mode, stats.Nodes, stats.SteadyAllocsPerTick))
			}
			fmt.Fprintf(w, "%-10s %8d nodes: %9.1f ticks/sec, %6.2f allocs/tick, %5.2f steady allocs/tick",
				mode, stats.Nodes, stats.TicksPerSec, stats.AllocsPerTick, stats.SteadyAllocsPerTick)
			if s.Speedup > 0 {
				fmt.Fprintf(w, " (%.2fx vs baseline %.1f)", s.Speedup, s.BaselineTicksPerSec)
			}
			fmt.Fprintf(w, "; build %.1f ms, ticks %.1f ms, finalize %.1f ms\n",
				stats.BuildMS, stats.TickMS, stats.FinalizeMS)
		}
		if len(run.Scales) == 0 {
			// Every requested scale was above the keyed-only cutoff:
			// there is no sequential data to record.
			continue
		}
		report.Runs = append(report.Runs, run)
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "wrote %s\n", path); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("steady allocs/tick over budget %.2f: %s", allocBudget, strings.Join(over, "; "))
	}
	return nil
}
