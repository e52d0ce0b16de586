package main

import (
	"encoding/json"
	"io"
	"maps"
	"slices"
	"time"
)

// Span names, one per layer boundary. A traced run records a span around
// each batch of calls the benchmark makes into a layer's public
// functions; the names are the layer ledger's keys.
const (
	spanTick         = "engine.tick"
	spanBuild        = "experiment.build"
	spanNodeBuild    = "node.build"
	spanGatewayBuild = "gateway.build"
	spanBrokerBuild  = "broker.build"
	spanCoreBuild    = "core.build"
	spanAdvance      = "node.advance"
	spanChurn        = "engine.churn"
	spanCollect      = "gateway.collect"
	spanOffer        = "core.offer"
	spanClassify     = "core.classify"
	spanAssign       = "cluster.assign"
	spanRebuild      = "cluster.rebuild"
	spanStepNoLE     = "broker.step_nole"
	spanStepLE       = "broker.step_le"
	spanRecord       = "metrics.record"
	spanFinalize     = "metrics.finalize"
	spanHLASetup     = "hla.setup"
	spanHLASend      = "hla.send"
	spanHLAAdvance   = "hla.advance"
	spanHLADeliver   = "hla.deliver"
	spanEncode       = "wire.encode"
	spanDecode       = "wire.decode"

	// spanRun is the root of every traced run; share_pct is relative to it.
	spanRun = "run"
)

// spanNames lists the ledger's layers in report order.
var spanNames = []string{
	spanTick, spanBuild, spanNodeBuild, spanGatewayBuild, spanBrokerBuild, spanCoreBuild,
	spanAdvance, spanChurn, spanCollect, spanOffer, spanClassify, spanAssign, spanRebuild,
	spanStepNoLE, spanStepLE, spanRecord, spanFinalize,
	spanHLASetup, spanHLASend, spanHLAAdvance, spanHLADeliver, spanEncode, spanDecode,
}

// processStart anchors clock. Its monotonic reading makes every clock
// value immune to wall-clock steps.
var processStart = time.Now() //adf:allow determinism — the benchmark's output is wall time

// clock returns nanoseconds since the process started, on the monotonic
// clock. Every time the benchmark measures is a difference of two clock
// values, so this is its only clock read.
func clock() int64 {
	return time.Since(processStart).Nanoseconds() //adf:allow determinism — the benchmark's output is wall time
}

// since returns the time elapsed since the clock value start.
func since(start int64) time.Duration { return time.Duration(clock() - start) }

// span is one recorded interval: a batch of Calls calls into one layer.
// Parent indexes the same slice (-1 for a top-level span); Thread
// separates the goroutines of a run that has several.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Calls  int64  `json:"calls"`
	Thread int    `json:"thread"`
}

// recorder keeps one goroutine's spans in memory until the run ends. A
// nil *recorder is tracing off: begin and end return at once and read no
// clock, so the untraced and traced runs execute the same loop.
type recorder struct {
	thread int
	spans  []span
}

func newRecorder(thread int) *recorder {
	return &recorder{thread: thread}
}

// reserve makes room for n more spans up front. Growing the slice inside
// a measured loop would allocate there, and the garbage collector work
// that follows would be charged to the layers the loop measures.
func (r *recorder) reserve(n int) {
	if r != nil {
		r.spans = slices.Grow(r.spans, n)
	}
}

// begin opens a span and returns its handle for end and for children.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name:   name,
		Start:  clock(),
		Parent: parent,
		Thread: r.thread,
	})
	return len(r.spans) - 1
}

// end closes span i, which covered calls calls into its layer.
func (r *recorder) end(i, calls int) {
	if r == nil {
		return
	}
	s := &r.spans[i]
	s.End = clock()
	s.Calls = int64(calls)
}

// mergeSpans concatenates per-goroutine span lists, rebasing parent
// indexes into the merged slice.
func mergeSpans(recs ...*recorder) []span {
	var out []span
	for _, r := range recs {
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// ledger derives the per-layer metrics of one traced run from its spans:
// for every layer S, S.calls, S.self_s (span time not covered by child
// spans), S.ns_per_call and S.share_pct (of the root run span).
func ledger(spans []span) map[string]float64 {
	cover := make([]int64, len(spans))
	var root int64
	for _, s := range spans {
		if s.Parent >= 0 {
			cover[s.Parent] += s.End - s.Start
		}
		if s.Name == spanRun {
			root += s.End - s.Start
		}
	}
	type agg struct{ calls, total, self int64 }
	by := map[string]*agg{}
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.calls += s.Calls
		a.total += d
		a.self += d - cover[i]
	}
	out := make(map[string]float64, 4*len(spanNames))
	for _, name := range spanNames {
		a := by[name]
		if a == nil {
			a = &agg{}
		}
		out[name+".calls"] = float64(a.calls)
		out[name+".self_s"] = float64(a.self) / 1e9
		out[name+".ns_per_call"] = 0
		if a.calls > 0 {
			out[name+".ns_per_call"] = float64(a.total) / float64(a.calls)
		}
		out[name+".share_pct"] = 0
		if root > 0 {
			out[name+".share_pct"] = 100 * float64(a.total) / float64(root)
		}
	}
	return out
}

// tickCoverage returns the share of engine.tick time its child spans
// cover, from a ledger; the rest is loop overhead no layer owns.
func tickCoverage(l map[string]float64) float64 {
	total := l[spanTick+".calls"] * l[spanTick+".ns_per_call"] / 1e9
	if total == 0 {
		return 0
	}
	return 1 - l[spanTick+".self_s"]/total
}

// durationsOf returns the durations (ns) of every span named name.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// chromeEvent is one Chrome trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracedRun is one workload's traced run as it goes into the trace file.
type tracedRun struct {
	Workload string
	Spans    []span
}

// writeChromeTrace writes the traced runs as Chrome trace_event JSON,
// one process per workload and one thread per recording goroutine.
// Open it in chrome://tracing or https://ui.perfetto.dev.
func writeChromeTrace(w io.Writer, runs []tracedRun) error {
	var events []chromeEvent
	for p, run := range runs {
		pid := p + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": run.Workload},
		})
		threads := map[int]bool{}
		for _, s := range run.Spans {
			threads[s.Thread] = true
			args := map[string]any{"calls": s.Calls}
			if s.Parent >= 0 {
				args["parent"] = run.Spans[s.Parent].Name
			}
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: pid, Tid: s.Thread,
				Ts:   float64(s.Start) / 1e3,
				Dur:  float64(s.End-s.Start) / 1e3,
				Args: args,
			})
		}
		for _, t := range slices.Sorted(maps.Keys(threads)) {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: t,
				Args: map[string]any{"name": threadName(t)},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// Recording goroutines of a traced run.
const (
	threadMain = iota
	threadSender
	threadReceiver
)

func threadName(t int) string {
	switch t {
	case threadSender:
		return "sender federate"
	case threadReceiver:
		return "receiver federate"
	}
	return "main"
}
