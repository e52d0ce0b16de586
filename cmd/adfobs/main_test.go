package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseSLOs(t *testing.T) {
	slos, err := parseSLOs(" interaction:p99<5ms, advance:p50<300us ,tick:p95<1.5s")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 3 {
		t.Fatalf("got %d SLOs, want 3", len(slos))
	}
	want := []slo{
		{op: "interaction", quantile: 0.99, qname: "p99", maxUS: 5000},
		{op: "advance", quantile: 0.50, qname: "p50", maxUS: 300},
		{op: "tick", quantile: 0.95, qname: "p95", maxUS: 1.5e6},
	}
	for i, w := range want {
		if slos[i] != w {
			t.Errorf("slo[%d] = %+v, want %+v", i, slos[i], w)
		}
	}
	if got, err := parseSLOs(""); err != nil || got != nil {
		t.Errorf("empty spec: got %v, %v", got, err)
	}
	for _, bad := range []string{"interaction", "interaction:p99", "interaction:p42<5ms", "interaction:p99<5", "interaction:p99<-3ms"} {
		if _, err := parseSLOs(bad); err == nil {
			t.Errorf("parseSLOs(%q) succeeded, want error", bad)
		}
	}
}

func TestSpanStatsQuantile(t *testing.T) {
	empty := &spanStats{}
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
	one := &spanStats{durs: []float64{7}}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := one.quantile(q); got != 7 {
			t.Errorf("one-sample q%.2f = %v, want 7", q, got)
		}
	}
	st := &spanStats{durs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	if got := st.quantile(0.50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := st.quantile(0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
}

func TestAnalyzeLinksByTraceID(t *testing.T) {
	merged := []traceEvent{
		{Name: "client:interaction", Cat: "rpc", Dur: 100, Args: map[string]string{"trace": "aa"}},
		{Name: "client:interaction", Cat: "rpc", Dur: 200, Args: map[string]string{"trace": "bb"}},
		{Name: "client:interaction", Cat: "rpc", Dur: 300, Args: map[string]string{"trace": "cc"}},
		{Name: "server:deliver:interaction", Cat: "rpc", Dur: 10, Args: map[string]string{"trace": "aa"}},
		{Name: "server:deliver:interaction", Cat: "rpc", Dur: 10, Args: map[string]string{"trace": "cc"}},
		// Receive-side spans must not count as origins.
		{Name: "client:recv:interaction", Cat: "rpc", Dur: 5, Args: map[string]string{"trace": "aa"}},
		// Non-rpc events are ignored entirely.
		{Name: "client:interaction", Cat: "", Dur: 1},
	}
	rep := analyze(merged)
	if rep.luOrigins != 3 || rep.luLinked != 2 {
		t.Fatalf("origins=%d linked=%d, want 3/2", rep.luOrigins, rep.luLinked)
	}
	if got := rep.linkRatio(); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("linkRatio = %v, want 2/3", got)
	}
	if n := len(rep.byOp["interaction"].durs); n != 3 {
		t.Errorf("interaction samples = %d, want 3", n)
	}
}

func TestAlignClocksUsesSyncPairs(t *testing.T) {
	// Server clock = client clock + 5ms: the server's epoch is 5e6 ns
	// earlier, so the same instant has a larger relative timestamp there.
	server := &process{
		trace:   chromeTrace{AdfMeta: traceMeta{Proc: "rtiserver"}},
		epochNS: 1000,
		marks:   []syncMark{{label: "start", fed: "send", t: 5_000_000 + 2000}},
	}
	client := &process{
		trace:   chromeTrace{AdfMeta: traceMeta{Proc: "adffed-send"}},
		epochNS: 1000,
		probes:  []syncProbe{{label: "start", fed: "send", t0: 1000, t1: 3000}},
	}
	if err := alignClocks([]*process{client, server}); err != nil {
		t.Fatal(err)
	}
	if !server.isRef {
		t.Fatal("the process holding sync marks should be the reference")
	}
	if client.pairs != 1 || math.Abs(client.offsetNS-5e6) > 1e-6 {
		t.Fatalf("client offset = %v ns from %d pairs, want 5e6 from 1", client.offsetNS, client.pairs)
	}
}

func TestAlignClocksNoPairsKeepsZero(t *testing.T) {
	a := &process{trace: chromeTrace{AdfMeta: traceMeta{Proc: "a"}}, epochNS: 10}
	b := &process{trace: chromeTrace{AdfMeta: traceMeta{Proc: "b"}}, epochNS: 20}
	if err := alignClocks([]*process{a, b}); err != nil {
		t.Fatal(err)
	}
	if !a.isRef || b.offsetNS != 0 || b.pairs != 0 {
		t.Fatalf("want first process as reference and zero offset, got ref=%v offset=%v", a.isRef, b.offsetNS)
	}
}

func TestMergeTracesRenumbersAndAligns(t *testing.T) {
	a := &process{
		trace: chromeTrace{
			AdfMeta:     traceMeta{Proc: "a"},
			TraceEvents: []traceEvent{{Name: "x", Ph: "X", Pid: 1, Ts: 10}},
		},
		epochNS: 1e9,
	}
	b := &process{
		trace: chromeTrace{
			AdfMeta:     traceMeta{Proc: "b"},
			TraceEvents: []traceEvent{{Name: "y", Ph: "X", Pid: 1, Ts: 10}},
		},
		epochNS:  2e9,
		offsetNS: -1e9, // aligned: same instant as a's event
	}
	merged := mergeTraces([]*process{a, b})
	var metas, spans int
	for _, e := range merged {
		if e.Ph == "M" {
			metas++
			continue
		}
		spans++
		if e.Ts != 0 {
			t.Errorf("event %q ts = %v, want 0 (both aligned to base)", e.Name, e.Ts)
		}
	}
	if metas != 2 || spans != 2 {
		t.Fatalf("got %d metadata + %d spans, want 2 + 2", metas, spans)
	}
	if merged[0].Ph != "M" || merged[1].Ph != "M" {
		t.Error("process_name metadata rows must sort first")
	}
	if merged[0].Pid == merged[1].Pid {
		t.Error("processes must get distinct pids")
	}
}

func TestParseDurationUS(t *testing.T) {
	cases := map[string]float64{"5ms": 5000, "300us": 300, "2s": 2e6, "1.5ms": 1500}
	for in, want := range cases {
		got, err := parseDurationUS(in)
		if err != nil || got != want {
			t.Errorf("parseDurationUS(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"5", "ms", "-1ms", "5m"} {
		if _, err := parseDurationUS(bad); err == nil {
			t.Errorf("parseDurationUS(%q) succeeded, want error", bad)
		}
	}
}

func TestAssessVerdicts(t *testing.T) {
	rep := &mergeReport{
		byOp:      map[string]*spanStats{"interaction": {durs: []float64{100, 200, 300}}},
		luOrigins: 10, luLinked: 9,
	}
	var b strings.Builder
	err := assess(&b, rep, []slo{{op: "interaction", quantile: 0.99, qname: "p99", maxUS: 1000}}, 0.85)
	if err != nil {
		t.Fatalf("passing checks errored: %v\n%s", err, b.String())
	}
	b.Reset()
	err = assess(&b, rep,
		[]slo{
			{op: "interaction", quantile: 0.99, qname: "p99", maxUS: 150},
			{op: "missing", quantile: 0.5, qname: "p50", maxUS: 1000},
		}, 0.95)
	if err == nil {
		t.Fatalf("want failure, got:\n%s", b.String())
	}
	out := b.String()
	for _, want := range []string{"FAIL", "no \"missing\" spans", "links 90.0% >= 95.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
