package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/obs"
)

// TestObsSmoke drives a short full simulation with observability
// enabled end to end: the registry must account the run, the span ring
// must export a parseable Chrome trace, the Prometheus rendering must
// carry the pipeline families and the event log must stream valid
// NDJSON. It is the observability gate, run under -race by `make race`.
func TestObsSmoke(t *testing.T) {
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)
	var events bytes.Buffer
	obs.Events.SetOutput(&events)
	defer obs.Events.SetOutput(nil)

	ticksBefore := obs.Ticks.Value()
	offeredBefore := obs.LUOffered.Value()
	sentBefore := obs.LUSent.Value()
	filteredBefore := obs.LUFiltered.Value()
	spansBefore := obs.SpanCount()

	c := DefaultConfig()
	c.Duration = 60
	run, err := c.runFilter(c.adfFactory(1.0))
	if err != nil {
		t.Fatal(err)
	}

	ticks := obs.Ticks.Value() - ticksBefore
	if want := uint64(c.Duration / c.SamplePeriod); ticks < want {
		t.Errorf("ticks counter advanced %d, want >= %d", ticks, want)
	}
	offered := obs.LUOffered.Value() - offeredBefore
	if offered == 0 {
		t.Error("no LUs offered were accounted")
	}
	sent := obs.LUSent.Value() - sentBefore
	filtered := obs.LUFiltered.Value() - filteredBefore
	if sent+filtered != offered {
		t.Errorf("sent %d + filtered %d != offered %d", sent, filtered, offered)
	}
	if got := uint64(run.TotalLUs()); sent != got {
		t.Errorf("registry sent %d, run reports %d", sent, got)
	}
	if obs.SpanCount() <= spansBefore {
		t.Error("no spans recorded")
	}

	// The Chrome trace must parse and carry the pipeline stages.
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	stages := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		stages[e.Name] = true
		if e.Dur < 0 {
			t.Errorf("negative span duration %v", e.Dur)
		}
	}
	for _, want := range []string{"advance", "nodes", "observers", "tick"} {
		if !stages[want] {
			t.Errorf("trace missing %q stage spans", want)
		}
	}

	// The Prometheus rendering must expose the acceptance families.
	var prom bytes.Buffer
	if err := obs.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	body := prom.String()
	for _, want := range []string{
		"adf_lu_sent_total",
		"adf_lu_filtered_total",
		`adf_stage_seconds_bucket{stage="tick",le="+Inf"}`,
		"adf_federates_connected",
		"adf_clusters_live",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics rendering missing %q", want)
		}
	}

	// Every event line must be self-contained JSON; a 60-second run
	// crosses several 10-second recluster intervals.
	sc := bufio.NewScanner(&events)
	kinds := map[string]int{}
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("event line %q is not JSON: %v", sc.Text(), err)
		}
		kind, _ := m["kind"].(string)
		kinds[kind]++
	}
	if kinds["recluster"] == 0 {
		t.Errorf("no recluster events in %v", kinds)
	}
}

// TestZeroAllocTickObsEnabled extends the zero-alloc guarantee to the
// enabled path: once the span ring and local histograms are warm, a
// tick with full observability on still allocates nothing — the flush
// is a fixed number of atomic adds, not per-node work.
func TestZeroAllocTickObsEnabled(t *testing.T) {
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)

	c := DefaultConfig()
	c.Duration = 4000
	pipeline, _, err := c.buildPipeline(c.adfFactory(1.0))
	if err != nil {
		t.Fatal(err)
	}
	defer pipeline.Close()

	now := 0.0
	tick := func() {
		now += c.SamplePeriod
		if err := pipeline.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Fatalf("obs-enabled steady-state tick allocates: %v allocs/tick, want 0", allocs)
	}
}
