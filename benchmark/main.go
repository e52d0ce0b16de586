// Command benchmark is the repository benchmark: it measures what users
// run — the paper's simulation campaigns through experiment.Config and
// the TCP RTI through hla.Server and hla.Client — end to end with
// tracing off, then gives every layer a number from a separate traced
// run. See README.md for the workloads, metrics and bounds.
//
// Usage:
//
//	bash benchmark/run.sh [flags]        # from the repository root
//	go run . [flags]                     # from this directory
//
// Flags:
//
//	-workload name|all   workload to run (default all)
//	-seed n              input seed: 1 is the development seed, 7 held out
//	-runs n              measured runs per phase (default 5)
//	-seconds s           measure each phase for s seconds instead of -runs
//	-trace 0|1|both      end-to-end runs, the traced run, or both (default)
//	-out file            results file (default .bench_build/results.json)
//	-trace-out file      Chrome trace of the traced runs
//	-smoke               every workload at a tiny size
//	-compare parent.json change.json
//	                     judge a change against its parent, per workload and metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run times at least setupReps one-tick set-ups, each in its own
// child. Given -seconds, it keeps going for a tenth of them, so that
// set-ups of a few milliseconds are sampled often enough for a steady
// median. setup_s is their median.
const setupReps = 5

// runDeadline bounds a run given -seconds, so the process always exits
// in time; children still running then are killed.
const runDeadline = 170 * time.Second

// options are the parsed flags of one benchmark run.
type options struct {
	workloads []workload
	seed      int64
	runs      int
	seconds   float64
	e2e       bool
	traced    bool
	smoke     bool
	// deadline is the clock value by which a -seconds run must be done;
	// 0 means none.
	deadline int64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "all", "workload to run, or all")
		seed         = fs.Int64("seed", 1, "input seed: 1 is the development seed, 7 the held-out seed")
		runs         = fs.Int("runs", 5, "measured runs per phase when -seconds is 0")
		seconds      = fs.Float64("seconds", 0, "measure each phase for this many seconds instead of -runs runs")
		trace        = fs.String("trace", "both", "0: end-to-end runs only; 1: traced runs only; both")
		out          = fs.String("out", filepath.Join(".bench_build", "results.json"), "results file to write; empty for none")
		traceOut     = fs.String("trace-out", filepath.Join(".bench_build", "trace.json"), "Chrome trace file of the traced runs; empty for none")
		smoke        = fs.Bool("smoke", false, "run every workload at a tiny size")
		compare      = fs.Bool("compare", false, "compare results files: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	o := options{seed: *seed, runs: *runs, seconds: *seconds, smoke: *smoke}
	switch *trace {
	case "0":
		o.e2e = true
	case "1":
		o.traced = true
	case "both":
		o.e2e, o.traced = true, true
	default:
		fmt.Fprintf(stderr, "benchmark: -trace must be 0, 1 or both, got %q\n", *trace)
		return 2
	}
	if o.runs < 1 || o.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: -runs must be at least 1 and -seconds not negative")
		return 2
	}
	if *workloadFlag == "all" {
		o.workloads = workloads
	} else {
		w, err := findWorkload(*workloadFlag)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		o.workloads = []workload{w}
	}

	ctx := context.Background()
	if o.seconds > 0 {
		o.deadline = clock() + runDeadline.Nanoseconds()
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runDeadline)
		defer cancel()
	}
	res := &results{Meta: newMeta(o), Workloads: map[string]*workloadResult{}}
	var traces []tracedRun
	for _, w := range o.workloads {
		fmt.Fprintf(stderr, "benchmark: %s ...\n", w.name)
		wr, spans := measure(ctx, w, o)
		res.Workloads[w.name] = wr
		if len(spans) > 0 {
			traces = append(traces, tracedRun{Workload: w.name, Spans: spans})
		}
		printReport(stdout, w, wr)
	}
	if *out != "" {
		if err := writeJSONFile(*out, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" && len(traces) > 0 {
		if err := writeTraceFile(*traceOut, traces); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(driverLine(o, res))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// results is the results file: run metadata and one entry per workload.
type results struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type meta struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified,omitempty"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func newMeta(o options) meta {
	m := meta{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childGOMAXPROCS,
		Seed:       o.seed,
		Smoke:      o.smoke,
	}
	if o.seconds > 0 {
		m.Seconds = o.seconds
	} else {
		m.Runs = o.runs
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// workloadResult is one workload's measurements. EndToEnd summarises
// each metric over the measured runs; PerLayer holds the median over
// the traced runs of each ledger metric.
type workloadResult struct {
	Description string                   `json:"description"`
	Attempted   int                      `json:"attempted"`
	Failed      int                      `json:"failed"`
	Failures    []string                 `json:"failures,omitempty"`
	EndToEnd    map[string]metricSummary `json:"end_to_end,omitempty"`
	PerLayer    map[string]metricValue   `json:"per_layer,omitempty"`
}

type metricSummary struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	summary
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxFailures caps the failure messages kept per workload.
const maxFailures = 20

// account adds one child's operations to the tally and reports whether
// its result is usable. A child that failed to run counts as one failed
// operation; a run whose output check failed fails all its operations.
func (r *workloadResult) account(res childResult, err error) bool {
	var msgs []string
	switch {
	case err != nil:
		r.Attempted++
		r.Failed++
		msgs = []string{err.Error()}
	default:
		r.Attempted += res.Ops
		if len(res.Failures) > 0 {
			r.Failed += res.Ops
			msgs = res.Failures
		}
	}
	for _, m := range msgs {
		if len(r.Failures) < maxFailures {
			r.Failures = append(r.Failures, m)
		}
	}
	return err == nil
}

// measure runs one workload's phases: set-ups and end-to-end runs, then
// alternating traced and untraced harness runs. It returns the spans of
// the first traced run for the trace file.
func measure(ctx context.Context, w workload, o options) (*workloadResult, []span) {
	r := &workloadResult{Description: w.describe(o.seed)}
	runW := w
	if o.smoke {
		runW = w.smoked()
		r.Description = runW.describe(o.seed) + " (smoke)"
	}
	spec := func(kind string) childSpec {
		return childSpec{Kind: kind, Workload: w.name, Seed: o.seed, Smoke: o.smoke}
	}
	if o.e2e {
		samples := map[string][]float64{}
		setupBudget := time.Duration(o.seconds / 10 * float64(time.Second))
		setupStart := clock()
		for i := 0; ctx.Err() == nil && (i < setupReps || since(setupStart) < setupBudget); i++ {
			res, err := runChild(ctx, spec(kindSetup))
			if r.account(res, err) {
				samples["setup_s"] = append(samples["setup_s"], res.Metrics["setup_s"])
			}
		}
		repeat(o, minE2ERuns, func() {
			res, err := runChild(ctx, spec(kindRun))
			failedShare := 1.0
			if r.account(res, err) {
				for k, v := range res.Metrics {
					samples[k] = append(samples[k], v)
				}
				samples["peak_rss_mb"] = append(samples["peak_rss_mb"], res.PeakRSSMiB)
				if len(res.Failures) == 0 {
					failedShare = 0
				}
			}
			samples["error_rate"] = append(samples["error_rate"], failedShare)
		})
		r.EndToEnd = map[string]metricSummary{}
		for _, m := range e2eMetrics {
			if m.appliesTo(runW) {
				r.EndToEnd[m.Name] = metricSummary{Unit: m.Unit, Better: m.Better, summary: summarize(samples[m.Name])}
			}
		}
	}
	var spans []span
	if o.traced {
		var ledgers []map[string]float64
		var tracedLoop, plainLoop []float64
		pair := 0
		repeat(o, 1, func() {
			kinds := []string{kindTraced, kindUntraced}
			if pair%2 == 1 {
				kinds[0], kinds[1] = kinds[1], kinds[0]
			}
			pair++
			for _, kind := range kinds {
				res, err := runChild(ctx, spec(kind))
				if !r.account(res, err) {
					continue
				}
				if kind == kindUntraced {
					plainLoop = append(plainLoop, res.Metrics["loop_s"])
					continue
				}
				tracedLoop = append(tracedLoop, res.Metrics["loop_s"])
				ledgers = append(ledgers, res.Metrics)
				if spans == nil {
					spans = res.Spans
				}
			}
		})
		r.PerLayer = map[string]metricValue{}
		for _, m := range layerMetrics() {
			var vs []float64
			for _, l := range ledgers {
				vs = append(vs, l[m.Name])
			}
			r.PerLayer[m.Name] = metricValue{Value: medianOf(vs), Unit: m.Unit}
		}
		if t, p := medianOf(tracedLoop), medianOf(plainLoop); p > 0 {
			r.PerLayer["trace_overhead_pct"] = metricValue{Value: 100 * (t/p - 1), Unit: "%"}
		}
	}
	return r, spans
}

// minE2ERuns is the fewest end-to-end runs a -seconds phase makes, so
// that each median rests on at least three runs. The traced phase, whose
// metrics carry no bound, makes at least one.
const minE2ERuns = 3

// repeat calls once for one phase of a workload: o.runs times, or with
// -seconds as many times as fit in that many seconds (but at least
// least times), never starting a call the run deadline would cut off.
func repeat(o options, least int, once func()) {
	budget := time.Duration(o.seconds * float64(time.Second))
	var elapsed, longest time.Duration
	for n := 0; ; n++ {
		if o.seconds > 0 {
			if n >= least && elapsed+longest > budget {
				return
			}
		} else if n >= o.runs {
			return
		}
		if n > 0 && o.deadline != 0 && clock()+longest.Nanoseconds() > o.deadline {
			return
		}
		start := clock()
		once()
		d := since(start)
		elapsed += d
		longest = max(longest, d)
	}
}

// driverResult is the last line of standard output. With one workload
// the metrics are named as in BENCHMARK.json; with several each name is
// prefixed by its workload and a slash.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driverLine(o options, res *results) driverResult {
	d := driverResult{Metrics: map[string]metricValue{}}
	for _, w := range o.workloads {
		wr := res.Workloads[w.name]
		d.Attempted += wr.Attempted
		d.Failed += wr.Failed
		prefix := ""
		if len(o.workloads) > 1 {
			prefix = w.name + "/"
		}
		for _, m := range e2eMetrics {
			if s, ok := wr.EndToEnd[m.Name]; ok && m.Declared {
				d.Metrics[prefix+m.Name] = metricValue{Value: s.Median, Unit: m.Unit}
			}
		}
		for name, v := range wr.PerLayer {
			d.Metrics[prefix+name] = v
		}
	}
	d.Correct = d.Failed == 0 && d.Attempted > 0
	return d
}

// printReport writes one workload's human-readable report.
func printReport(w io.Writer, wl workload, r *workloadResult) {
	fmt.Fprintf(w, "\n%s: %s\n", wl.name, r.Description)
	if len(r.EndToEnd) > 0 {
		fmt.Fprintf(w, "  %-24s %-6s %12s %12s %12s %4s\n", "end to end (tracing off)", "unit", "median", "q1", "q3", "n")
		for _, m := range e2eMetrics {
			s, ok := r.EndToEnd[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-24s %-6s %12.5g %12.5g %12.5g %4d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintf(w, "  %-24s %10s %10s %12s %8s\n", "layer (traced run)", "calls", "self_s", "ns/call", "share%")
		for _, s := range spanNames {
			calls := r.PerLayer[s+".calls"].Value
			if calls == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-24s %10.0f %10.4f %12.1f %8.2f\n", s, calls,
				r.PerLayer[s+".self_s"].Value, r.PerLayer[s+".ns_per_call"].Value, r.PerLayer[s+".share_pct"].Value)
		}
		for _, m := range layerExtras {
			fmt.Fprintf(w, "  %-24s %10.5g %s\n", m.Name, r.PerLayer[m.Name].Value, m.Unit)
		}
		l := map[string]float64{}
		for k, v := range r.PerLayer {
			l[k] = v.Value
		}
		if cov := tickCoverage(l); cov > 0 {
			fmt.Fprintf(w, "  stage spans cover %.1f%% of engine.tick\n", 100*cov)
		}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTraceFile(path string, runs []tracedRun) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, runs); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
