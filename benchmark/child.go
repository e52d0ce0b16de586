package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"

	"github.com/mobilegrid/adf/internal/experiment"
)

// Every measured run executes in a fresh child process: a re-exec of
// this binary told what to run through childEnv. That keeps each run's
// peak RSS measurable from outside and its GC heap from leaking into the
// next run.
const childEnv = "ADF_BENCHMARK_CHILD"

// childGOMAXPROCS is the parallelism every child runs with.
const childGOMAXPROCS = 2

// Child kinds.
const (
	// kindRun is one end-to-end run, tracing off.
	kindRun = "run"
	// kindSetup is the workload at a one-tick horizon (simulations) or
	// up to the first time step (RTI); it reports setup_s.
	kindSetup = "setup"
	// kindTraced is the harness with spans; kindUntraced the same loop
	// without, for trace_overhead_pct.
	kindTraced   = "traced"
	kindUntraced = "untraced"
)

// childSpec tells a child process which run to execute.
type childSpec struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke,omitempty"`
}

// childResult is what a child reports on its standard output. Ops
// counts the operations it attempted (simulation runs, or RTI
// requests); Failures lists the output checks that failed, each of which
// fails every operation of the run.
type childResult struct {
	Ops      int                `json:"ops"`
	Failures []string           `json:"failures,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans,omitempty"`
	// PeakRSSMiB is the child's maximum resident set, read by the parent
	// from the child's rusage.
	PeakRSSMiB float64 `json:"-"`
}

// childMain executes the run described by specJSON and writes its
// result to stdout. It returns the process exit code.
func childMain(specJSON string, stdout, stderr io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark child: bad spec: %v\n", err)
		return 2
	}
	res, err := execChild(spec)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark child %s %s: %v\n", spec.Workload, spec.Kind, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "benchmark child: %v\n", err)
		return 1
	}
	return 0
}

func execChild(spec childSpec) (childResult, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return childResult{}, err
	}
	if spec.Smoke {
		w = w.smoked()
	}
	traced := spec.Kind == kindTraced
	if w.sim != nil {
		switch spec.Kind {
		case kindRun, kindSetup:
			return runSim(*w.sim, spec.Seed, spec.Kind == kindSetup)
		case kindTraced, kindUntraced:
			return simHarnessChild(w.sim.config(spec.Seed), traced)
		}
	} else {
		stream := generateStream(*w.rti, spec.Seed)
		switch spec.Kind {
		case kindRun:
			return rtiRunChild(stream)
		case kindSetup:
			out, err := runRTI(stream[:1], false)
			if err != nil {
				return childResult{}, err
			}
			return childResult{Ops: out.requests, Failures: out.failures,
				Metrics: map[string]float64{"setup_s": out.setup.Seconds()}}, nil
		case kindTraced, kindUntraced:
			return rtiHarnessChild(stream, traced)
		}
	}
	return childResult{}, fmt.Errorf("unknown child kind %q", spec.Kind)
}

// simHarnessChild runs the traced (or untraced) harness on the first
// seed of a simulation workload. loop_s is the tick loop's wall time.
func simHarnessChild(c experiment.Config, traced bool) (childResult, error) {
	var rec *recorder
	if traced {
		rec = newRecorder(threadMain)
	}
	out, err := runHarness(c, rec)
	if err != nil {
		return childResult{}, err
	}
	m := map[string]float64{"loop_s": out.loop.Seconds()}
	if traced {
		m = ledger(out.spans)
		for k, v := range out.extras {
			m[k] = v
		}
		m["loop_s"] = out.loop.Seconds()
	}
	return childResult{Ops: 1, Failures: out.failures, Metrics: m, Spans: out.spans}, nil
}

// rtiRunChild runs one end-to-end RTI session.
func rtiRunChild(stream [][]luRec) (childResult, error) {
	out, err := runRTI(stream, false)
	if err != nil {
		return childResult{}, err
	}
	return childResult{
		Ops:      out.requests,
		Failures: out.failures,
		Metrics: map[string]float64{
			"wall_s":            out.wall.Seconds(),
			"lu_per_s":          float64(out.delivered) / out.wall.Seconds(),
			"lu_latency_p50_ms": percentile(out.latencies, 0.50) / 1e6,
			"lu_latency_p99_ms": percentile(out.latencies, 0.99) / 1e6,
			"wire_bytes_per_lu": float64(out.wireBytes) / float64(max(out.delivered, 1)),
		},
	}, nil
}

// rtiHarnessChild runs one RTI session with (or without) spans around
// every client call. loop_s is the lockstep window's wall time.
func rtiHarnessChild(stream [][]luRec, traced bool) (childResult, error) {
	out, err := runRTI(stream, traced)
	if err != nil {
		return childResult{}, err
	}
	m := map[string]float64{"loop_s": out.wall.Seconds()}
	if traced {
		m = ledger(out.spans)
		m["loop_s"] = out.wall.Seconds()
		m["hla.send_p50_us"] = percentile(out.sendCalls, 0.50) / 1e3
		m["hla.send_p99_us"] = percentile(out.sendCalls, 0.99) / 1e3
		m["hla.advance_p50_ms"] = percentile(out.advanceCalls, 0.50) / 1e6
		m["hla.advance_p99_ms"] = percentile(out.advanceCalls, 0.99) / 1e6
		m["wire.frame_bytes"] = out.frameBytes
	}
	return childResult{Ops: out.requests, Failures: out.failures, Metrics: m, Spans: out.spans}, nil
}

// runChild re-executes this binary to run spec and collects its result.
// The child is killed if ctx ends first; either way runChild returns
// only after the child has exited.
func runChild(ctx context.Context, spec childSpec) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", spec.Kind, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child: bad result: %w", spec.Kind, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return res, nil
}
