// Command adfobs merges the per-process Chrome trace_event files written
// by rtiserver, adffed and adfsim (-obs-trace) into one cross-process
// trace, aligning each process's clock against the RTI server's via the
// sync_probe/sync_mark records in the NDJSON event streams, and prints a
// request-latency/SLO report over the merged RTI spans.
//
// Each positional argument names one process's trace, optionally with
// its event stream after a colon:
//
//	adfobs -out merged.json \
//	    rti.json:rti.ndjson send.json:send.ndjson recv.json:recv.ndjson
//
// The merged file loads in about:tracing / Perfetto with one named
// process row per input. The report gives per-op p50/p95/p99 over the
// client-observed request latencies and the LU link ratio: the fraction
// of traced location-update requests whose trace ID reappears on a
// server delivery span (origin -> delivery causality held end to end).
//
// SLOs are asserted with -slo, a comma-separated list like
//
//	-slo "update:p99<5ms,advance:p95<20ms"
//
// An interaction span times only the client's enqueue (SendInteraction
// is pipelined: it joins a run of same-class, same-time sends that
// leaves as one frame, and does not wait for the ack), so an
// interaction SLO bounds the send call, not the LU's trip to its
// receivers. Every send of a run records its own span under the run's
// trace ID, and the run's one delivery span carries that ID, so each
// send counts as linked.
//
// and -require-links 0.99 demands at least that link ratio. Any
// violation makes adfobs exit non-zero, so CI can gate on it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adfobs: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// traceEvent mirrors the subset of the Chrome trace_event schema the obs
// package emits. Unknown fields round-trip through Extra.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  uint32            `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type traceMeta struct {
	Proc    string `json:"proc"`
	Pid     int    `json:"pid"`
	EpochNS string `json:"epoch_ns"`
}

type chromeTrace struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	AdfMeta     traceMeta    `json:"adfMeta"`
}

// syncProbe is a federate-side sync_probe event: the client observed its
// SynchronizationPointAchieved call spanning [t0, t1] nanoseconds after
// its process epoch.
type syncProbe struct {
	label, fed string
	t0, t1     float64
}

// syncMark is the server-side sync_mark: the RTI processed the achieve
// at t nanoseconds after the server's process epoch.
type syncMark struct {
	label, fed string
	t          float64
}

// process is one loaded input: a trace plus its optional event stream.
type process struct {
	traceFile string
	trace     chromeTrace
	epochNS   float64 // adfMeta.epoch_ns
	probes    []syncProbe
	marks     []syncMark
	offsetNS  float64 // added to (epochNS + rel) to express times in the reference clock
	pairs     int     // sync probe/mark pairs behind offsetNS
	isRef     bool
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("adfobs", flag.ContinueOnError)
	var (
		out      = fs.String("out", "", "write the merged Chrome trace_event JSON to this file")
		sloSpec  = fs.String("slo", "", `latency SLOs, e.g. "update:p99<5ms,advance:p95<20ms"`)
		minLinks = fs.Float64("require-links", 0, "fail unless at least this fraction of LU origin spans link to a delivery span (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: adfobs [-out merged.json] [-slo spec] trace.json[:events.ndjson] ...")
	}
	slos, err := parseSLOs(*sloSpec)
	if err != nil {
		return err
	}

	procs := make([]*process, 0, fs.NArg())
	for _, arg := range fs.Args() {
		p, err := loadProcess(arg)
		if err != nil {
			return err
		}
		procs = append(procs, p)
	}

	if err := alignClocks(procs); err != nil {
		return err
	}
	merged := mergeTraces(procs)
	report := analyze(merged)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		if err := enc.Encode(merged); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	printReport(w, procs, report)
	return assess(w, report, slos, *minLinks)
}

// loadProcess reads "trace.json" or "trace.json:events.ndjson".
func loadProcess(arg string) (*process, error) {
	traceFile, eventsFile, _ := strings.Cut(arg, ":")
	p := &process{traceFile: traceFile}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &p.trace); err != nil {
		return nil, fmt.Errorf("%s: %w", traceFile, err)
	}
	if p.trace.AdfMeta.Proc == "" {
		return nil, fmt.Errorf("%s: no adfMeta (written by an obs-instrumented binary?)", traceFile)
	}
	epoch, err := strconv.ParseFloat(p.trace.AdfMeta.EpochNS, 64)
	if err != nil {
		return nil, fmt.Errorf("%s: bad adfMeta.epoch_ns: %w", traceFile, err)
	}
	p.epochNS = epoch
	if eventsFile != "" {
		if err := p.loadEvents(eventsFile); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// loadEvents scans an NDJSON event stream for sync probes and marks.
func (p *process) loadEvents(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Kind  string  `json:"kind"`
			Label string  `json:"label"`
			Fed   string  `json:"fed"`
			T0    float64 `json:"t0_ns"`
			T1    float64 `json:"t1_ns"`
			T     float64 `json:"t_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // foreign lines are fine; only sync records matter here
		}
		switch ev.Kind {
		case "sync_probe":
			p.probes = append(p.probes, syncProbe{label: ev.Label, fed: ev.Fed, t0: ev.T0, t1: ev.T1})
		case "sync_mark":
			p.marks = append(p.marks, syncMark{label: ev.Label, fed: ev.Fed, t: ev.T})
		}
	}
	return sc.Err()
}

// alignClocks picks the reference process (the RTI: the one holding
// sync_mark records, else server spans, else the first input) and
// estimates every other process's clock offset against it from matching
// sync_probe/sync_mark pairs, NTP-style: the server's mark and the
// midpoint of the client's achieve round-trip bracket the same instant.
// Processes without a matching pair keep offset 0 — on one machine the
// shared epoch timebase already aligns them.
func alignClocks(procs []*process) error {
	ref := 0
	for i, p := range procs {
		if len(p.marks) > 0 {
			ref = i
			break
		}
		for _, e := range p.trace.TraceEvents {
			if e.Cat == "rpc" && strings.HasPrefix(e.Name, "server:") {
				ref = i
			}
		}
	}
	r := procs[ref]
	r.isRef = true
	for _, p := range procs {
		if p == r {
			continue
		}
		var sum float64
		var n int
		for _, pr := range p.probes {
			for _, mk := range r.marks {
				if mk.label == pr.label && mk.fed == pr.fed {
					mid := (pr.t0 + pr.t1) / 2
					sum += (r.epochNS + mk.t) - (p.epochNS + mid)
					n++
				}
			}
		}
		if n > 0 {
			p.offsetNS = sum / float64(n)
			p.pairs = n
		}
	}
	return nil
}

// mergeTraces rewrites every event into the reference clock, gives each
// process a distinct pid with a process_name metadata row, and returns
// one merged trace sorted by timestamp.
func mergeTraces(procs []*process) []traceEvent {
	// Anchor merged timestamps at the earliest aligned event so the
	// trace opens at t=0 instead of an epoch-sized offset.
	base := math.Inf(1)
	for _, p := range procs {
		for _, e := range p.trace.TraceEvents {
			if abs := p.absMicros(e.Ts); abs < base {
				base = abs
			}
		}
	}
	if math.IsInf(base, 1) {
		base = 0
	}

	var merged []traceEvent
	for i, p := range procs {
		pid := i + 1
		merged = append(merged, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": p.trace.AdfMeta.Proc},
		})
		for _, e := range p.trace.TraceEvents {
			e.Pid = pid
			e.Ts = p.absMicros(e.Ts) - base
			merged = append(merged, e)
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Ph == "M" != (merged[j].Ph == "M") {
			return merged[i].Ph == "M" // metadata first
		}
		return merged[i].Ts < merged[j].Ts
	})
	return merged
}

// absMicros converts a process-relative trace timestamp (µs since the
// process epoch) to aligned absolute microseconds.
func (p *process) absMicros(ts float64) float64 {
	return (p.epochNS+p.offsetNS)/1e3 + ts
}

// spanStats aggregates one client op's observed request latencies.
type spanStats struct {
	durs []float64 // microseconds
}

func (s *spanStats) quantile(q float64) float64 {
	if len(s.durs) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(s.durs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.durs) {
		rank = len(s.durs) - 1
	}
	return s.durs[rank]
}

// mergeReport is everything analyze derives from the merged span set.
type mergeReport struct {
	rpcSpans  int
	luOrigins int
	luLinked  int
	byOp      map[string]*spanStats // client op -> latencies, sorted
}

func (r *mergeReport) linkRatio() float64 {
	if r.luOrigins == 0 {
		return 1
	}
	return float64(r.luLinked) / float64(r.luOrigins)
}

// analyze computes per-op client latency distributions and the LU link
// ratio: a client:update or client:interaction origin span counts as
// linked when its 128-bit trace ID reappears on a server:deliver span.
func analyze(merged []traceEvent) *mergeReport {
	rep := &mergeReport{byOp: make(map[string]*spanStats)}
	delivered := make(map[string]bool)
	for _, e := range merged {
		if e.Cat != "rpc" {
			continue
		}
		rep.rpcSpans++
		if strings.HasPrefix(e.Name, "server:deliver:") {
			delivered[e.Args["trace"]] = true
		}
	}
	for _, e := range merged {
		if e.Cat != "rpc" || !strings.HasPrefix(e.Name, "client:") || strings.HasPrefix(e.Name, "client:recv:") {
			continue
		}
		op := strings.TrimPrefix(e.Name, "client:")
		st := rep.byOp[op]
		if st == nil {
			st = &spanStats{}
			rep.byOp[op] = st
		}
		st.durs = append(st.durs, e.Dur)
		if op == "update" || op == "interaction" {
			rep.luOrigins++
			if delivered[e.Args["trace"]] {
				rep.luLinked++
			}
		}
	}
	for _, st := range rep.byOp {
		sort.Float64s(st.durs)
	}
	return rep
}

// slo is one parsed "-slo" clause: op's quantile must stay under max
// microseconds.
type slo struct {
	op       string
	quantile float64 // 0.50, 0.95, 0.99
	qname    string
	maxUS    float64
}

// parseSLOs parses "op:p99<5ms,op2:p50<300us".
func parseSLOs(spec string) ([]slo, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []slo
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		op, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("slo %q: want op:pNN<limit", clause)
		}
		qname, lim, ok := strings.Cut(rest, "<")
		if !ok {
			return nil, fmt.Errorf("slo %q: want op:pNN<limit", clause)
		}
		var q float64
		switch qname {
		case "p50":
			q = 0.50
		case "p95":
			q = 0.95
		case "p99":
			q = 0.99
		default:
			return nil, fmt.Errorf("slo %q: quantile must be p50, p95 or p99", clause)
		}
		us, err := parseDurationUS(lim)
		if err != nil {
			return nil, fmt.Errorf("slo %q: %w", clause, err)
		}
		out = append(out, slo{op: strings.TrimSpace(op), quantile: q, qname: qname, maxUS: us})
	}
	return out, nil
}

// parseDurationUS parses "5ms", "300us" or "1.5s" into microseconds.
func parseDurationUS(s string) (float64, error) {
	s = strings.TrimSpace(s)
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "us"):
		s = strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		s, mult = strings.TrimSuffix(s, "ms"), 1e3
	case strings.HasSuffix(s, "s"):
		s, mult = strings.TrimSuffix(s, "s"), 1e6
	default:
		return 0, fmt.Errorf("limit %q needs a us, ms or s suffix", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad limit %q", s)
	}
	return v * mult, nil
}

func printReport(w io.Writer, procs []*process, rep *mergeReport) {
	fmt.Fprintf(w, "processes:\n")
	for _, p := range procs {
		note := fmt.Sprintf("offset %+.3fms (%d sync pairs)", p.offsetNS/1e6, p.pairs)
		if p.isRef {
			note = "reference clock"
		}
		fmt.Fprintf(w, "  %-16s %s  %s\n", p.trace.AdfMeta.Proc, p.traceFile, note)
	}
	fmt.Fprintf(w, "spans: %d rpc spans, %d LU origins, %d linked to delivery (%.1f%%)\n",
		rep.rpcSpans, rep.luOrigins, rep.luLinked, 100*rep.linkRatio())
	ops := make([]string, 0, len(rep.byOp))
	for op := range rep.byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "client request latency:\n")
	for _, op := range ops {
		st := rep.byOp[op]
		fmt.Fprintf(w, "  %-12s n=%-5d p50=%s p95=%s p99=%s\n", op, len(st.durs),
			fmtUS(st.quantile(0.50)), fmtUS(st.quantile(0.95)), fmtUS(st.quantile(0.99)))
	}
}

// assess checks the SLOs and link requirement, printing one verdict line
// each; any failure becomes a single error so every verdict still prints.
func assess(w io.Writer, rep *mergeReport, slos []slo, minLinks float64) error {
	failures := 0
	for _, s := range slos {
		st := rep.byOp[s.op]
		if st == nil || len(st.durs) == 0 {
			fmt.Fprintf(w, "slo %s %s < %s: FAIL (no %q spans)\n", s.op, s.qname, fmtUS(s.maxUS), s.op)
			failures++
			continue
		}
		got := st.quantile(s.quantile)
		verdict := "ok"
		if got >= s.maxUS {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "slo %s %s = %s < %s: %s\n", s.op, s.qname, fmtUS(got), fmtUS(s.maxUS), verdict)
	}
	if minLinks > 0 {
		verdict := "ok"
		if rep.linkRatio() < minLinks {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "links %.1f%% >= %.1f%%: %s\n", 100*rep.linkRatio(), 100*minLinks, verdict)
	}
	if failures > 0 {
		return fmt.Errorf("%d SLO/link check(s) failed", failures)
	}
	return nil
}

// fmtUS renders a microsecond quantity with an adaptive unit.
func fmtUS(us float64) string {
	switch {
	case math.IsNaN(us):
		return "n/a"
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fus", us)
	}
}
