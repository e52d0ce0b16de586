package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// withEnabled runs f with observability forced on, restoring the prior
// state so test order never matters.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	was := Enabled()
	SetEnabled(true)
	defer SetEnabled(was)
	f()
}

func TestCounterGating(t *testing.T) {
	SetEnabled(false)
	var c Counter
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter recorded %d, want 0", got)
	}
	withEnabled(t, func() {
		c.Inc()
		c.Add(5)
	})
	if got := c.Value(); got != 6 {
		t.Fatalf("enabled counter = %d, want 6", got)
	}
}

func TestGaugeIsUngated(t *testing.T) {
	SetEnabled(false)
	var g Gauge
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2 (gauges must track state even when disabled)", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge after Set = %d, want -7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	withEnabled(t, func() {
		for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
			h.Observe(v)
		}
	})
	want := []uint64{2, 2, 1, 1} // le=1: {0.5, 1}; le=10: {5, 10}; le=100: {99}; +Inf: {1000}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0.5+1+5+10+99+1000 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestRegistryLookupReusesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "k", "v")
	b := r.Counter("x_total", "k", "v")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c := r.Counter("x_total", "k", "w"); c == a {
		t.Fatal("different labels returned the same counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	withEnabled(t, func() {
		r.Counter("z_total").Add(3)
		r.Counter("a_total", "dir", "in").Add(1)
		r.Counter("a_total", "dir", "out").Add(2)
		r.Gauge("g").Set(-4)
		// Exactly representable values so the rendered _sum is stable.
		h := r.Histogram("lat_seconds", []float64{0.1, 1})
		h.Observe(0.0625)
		h.Observe(0.5)
		h.Observe(5)
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# TYPE a_total counter
a_total{dir="in"} 1
a_total{dir="out"} 2
# TYPE g gauge
g -4
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 5.5625
lat_seconds_count 3
# TYPE z_total counter
z_total 3
`
	if got != want {
		t.Errorf("rendering mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotKeys(t *testing.T) {
	r := NewRegistry()
	withEnabled(t, func() {
		r.Counter("c_total", "k", "v").Add(2)
		r.Gauge("g").Set(1)
		r.Histogram("h", []float64{1}).Observe(0.5)
	})
	snap := r.Snapshot()
	if snap.Counters[`c_total{k="v"}`] != 2 {
		t.Errorf("counter snapshot = %v", snap.Counters)
	}
	if snap.Gauges["g"] != 1 {
		t.Errorf("gauge snapshot = %v", snap.Gauges)
	}
	hs, ok := snap.Histograms["h"]
	if !ok || hs.Count != 1 || hs.Counts[0] != 1 {
		t.Errorf("histogram snapshot = %+v", snap.Histograms)
	}
}

func TestTickLocalFlush(t *testing.T) {
	var l TickLocal
	l.Init()
	ticksBefore := Ticks.Value()
	sentBefore := LUSent.Value()
	distBefore := FilterDistance.Count()

	l.Sent += 4
	l.Offered += 5
	l.Distance.Observe(0.3)
	l.Distance.Observe(50)
	l.Flush()

	if got := Ticks.Value() - ticksBefore; got != 1 {
		t.Errorf("ticks advanced %d, want 1", got)
	}
	if got := LUSent.Value() - sentBefore; got != 4 {
		t.Errorf("sent flushed %d, want 4", got)
	}
	if got := FilterDistance.Count() - distBefore; got != 2 {
		t.Errorf("distance observations flushed %d, want 2", got)
	}
	if l.Sent != 0 || l.Offered != 0 || l.Distance.n != 0 {
		t.Error("flush did not zero the batch")
	}
}

func TestLocalHistUnboundIsNoop(t *testing.T) {
	var l LocalHist
	l.Observe(1) // must not panic
	l.flush()
}

func TestSpansAndChromeTrace(t *testing.T) {
	withEnabled(t, func() {
		tid := NextTID()
		start := StageStart()
		if start == 0 {
			t.Fatal("StageStart returned 0 while enabled")
		}
		t1 := StageClock(start)
		t2 := StageClock(start)
		t3 := StageClock(start)
		RecordShardSpan(tid, 0, nil, start, t1, t2)
		RecordTickSpans(tid, start, t1, t2, t3, StageClock(start))
	})
	if SpanCount() < 5 {
		t.Fatalf("span count = %d, want >= 5", SpanCount())
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
		Metrics         json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != SpanCount() {
		t.Errorf("trace has %d events, ring has %d", len(trace.TraceEvents), SpanCount())
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event phase %q, want X", e.Ph)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"advance", "nodes", "merge", "observers", "tick"} {
		if !names[want] {
			t.Errorf("trace missing %q span", want)
		}
	}
	if len(trace.Metrics) == 0 {
		t.Error("trace has no embedded metrics snapshot")
	}
}

func TestStageDisabledRecordsNothing(t *testing.T) {
	SetEnabled(false)
	before := SpanCount()
	start := StageStart()
	if start != 0 {
		t.Fatalf("disabled StageStart = %d, want 0", start)
	}
	RecordTickSpans(1, start, StageClock(start), 0, 0, 0)
	RecordShardSpan(1, 0, nil, 0, 0, 0)
	if SpanCount() != before {
		t.Error("disabled stage calls recorded spans")
	}
}

func TestStageString(t *testing.T) {
	cases := map[Stage]string{
		StageAdvance:   "advance",
		StageNodes:     "nodes",
		StageObservers: "observers",
		StageTick:      "tick",
		Stage(99):      "unknown",
		Stage(-1):      "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Stage(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestEventLogNDJSON(t *testing.T) {
	var buf bytes.Buffer
	log := &EventLog{}
	log.SetOutput(&buf)
	if !log.On() {
		t.Fatal("log with writer reports Off")
	}
	log.Emit("cluster_created", F("cluster", 3))
	log.Emit("federate_join", S("federation", "mobilegrid"), S("name", `probe "q"`))

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "cluster_created" || lines[0]["cluster"] != 3.0 {
		t.Errorf("first event = %v", lines[0])
	}
	if lines[1]["seq"] != 2.0 || lines[1]["name"] != `probe "q"` {
		t.Errorf("second event = %v", lines[1])
	}

	log.SetOutput(nil)
	if log.On() {
		t.Error("log still On after removing writer")
	}
	log.Emit("dropped")
	if log.Seq() != 2 {
		t.Errorf("disabled Emit advanced seq to %d", log.Seq())
	}
}

func TestHTTPHandler(t *testing.T) {
	withEnabled(t, func() {
		LUSent.Add(1)
	})
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE adf_lu_sent_total counter",
		"# TYPE adf_stage_seconds histogram",
		"adf_federates_connected",
		"adf_lu_filtered_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp2, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var trace map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&trace); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}
	if _, ok := trace["traceEvents"]; !ok {
		t.Error("/trace has no traceEvents key")
	}
}

// TestDisabledPathAllocsNothing pins the zero-cost discipline at the
// instrument level: with observability off, counters, stage spans,
// local histograms and the event log neither allocate nor record.
func TestDisabledPathAllocsNothing(t *testing.T) {
	SetEnabled(false)
	var l TickLocal
	l.Init()
	if allocs := testing.AllocsPerRun(1000, func() {
		LUSent.Inc()
		FilterDistance.Observe(1)
		l.Offered++
		l.Distance.Observe(1)
		start := StageStart()
		RecordTickSpans(1, start, StageClock(start), 0, 0, 0)
		Events.Emit("never")
	}); allocs != 0 {
		t.Fatalf("disabled instrument path allocates %v/op, want 0", allocs)
	}
}

func TestServeBindsAndScrapes(t *testing.T) {
	was := Enabled()
	defer SetEnabled(was)
	addr, stop, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if !Enabled() {
		t.Error("Serve did not enable observability")
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
}
