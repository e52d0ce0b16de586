package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/core"
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
	for _, want := range []string{"advance", "nodes", "lane", "tick"} {
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

// registryTotals snapshots the registry instruments a campaign moves:
// the lane-level counters and histogram counts, keyed by name, and the
// front-level reclusters counter and per-pattern gauges.
func registryTotals() (lane map[string]uint64, reclusters uint64, patterns []int64) {
	lane = map[string]uint64{
		"ticks":            obs.Ticks.Value(),
		"offered":          obs.LUOffered.Value(),
		"sent":             obs.LUSent.Value(),
		"filtered":         obs.LUFiltered.Value(),
		"broker_received":  obs.BrokerReceived.Value(),
		"broker_estimated": obs.BrokerEstimated.Value(),
		"broker_forgets":   obs.BrokerForgets.Value(),
		"churn_left":       obs.ChurnLeft.Value(),
		"churn_rejoined":   obs.ChurnRejoined.Value(),
		"distance_hist":    obs.FilterDistance.Count(),
		"dth_hist":         obs.FilterDTH.Count(),
	}
	for _, r := range campus.New().Regions() {
		lane["offered/"+string(r.ID)] = obs.RegionOffered(string(r.ID)).Value()
		lane["sent/"+string(r.ID)] = obs.RegionSent(string(r.ID)).Value()
	}
	for p := core.PatternUnknown; p <= core.PatternLinear; p++ {
		patterns = append(patterns, obs.PatternNodes(int(p)).Value())
	}
	return lane, obs.Reclusters.Value(), patterns
}

// TestObsTotalsPerLane pins how the registry accounts a campaign run as
// one pass. Run alone, each of the campaign's four runs is a pass of
// its own; as the campaign runs them they are four lanes of one pass —
// inline at Workers 1, trailing the world stage at Workers 2 — and the
// three ADF lanes share one front. Every lane-level instrument — ticks,
// LUs offered, sent and filtered, broker receipts, estimates and
// forgets, churn events, the filter histograms and the per-region LU
// counters — must move by the same amount either way: each lane adds
// what its run adds alone. Front-level instruments count once per
// front: adf_reclusters_total and the per-pattern node gauges move by a
// third as much when three ADF lanes share one front.
func TestObsTotalsPerLane(t *testing.T) {
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)

	c := DefaultConfig()
	c.Duration = 60
	c.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}
	measure := func(run func() error) (map[string]uint64, uint64, []int64) {
		lane0, rc0, pat0 := registryTotals()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		lane1, rc1, pat1 := registryTotals()
		for k := range lane1 {
			lane1[k] -= lane0[k]
		}
		for p := range pat1 {
			pat1[p] -= pat0[p]
		}
		return lane1, rc1 - rc0, pat1
	}
	aloneLane, aloneRC, alonePat := measure(func() error {
		for _, task := range c.campaignTasks() {
			if _, err := runPass([]runTask{task}); err != nil {
				return err
			}
		}
		return nil
	})
	for _, workers := range []int{1, 2} {
		cfg := c
		cfg.Workers = workers
		sharedLane, sharedRC, sharedPat := measure(func() error {
			_, err := cfg.Run()
			return err
		})
		checkObsTotals(t, workers, aloneLane, sharedLane, aloneRC, sharedRC, alonePat, sharedPat)
	}
}

// checkObsTotals compares a campaign's registry movement as one pass at
// campaign workers against its runs' movement as passes of their own.
func checkObsTotals(t *testing.T, workers int, aloneLane, sharedLane map[string]uint64,
	aloneRC, sharedRC uint64, alonePat, sharedPat []int64) {
	t.Helper()
	for k, v := range aloneLane {
		if sharedLane[k] != v {
			t.Errorf("workers=%d %s: %d as four passes, %d as one pass of four lanes", workers, k, v, sharedLane[k])
		}
	}
	if aloneLane["offered"] == 0 || aloneLane["churn_left"] == 0 || aloneLane["broker_forgets"] == 0 {
		t.Errorf("campaign moved no offered, churn or forget counter: %v", aloneLane)
	}
	if sharedRC == 0 || aloneRC != 3*sharedRC {
		t.Errorf("workers=%d reclusters: %d from three ADF fronts, %d from one shared front; want a 3:1 ratio", workers, aloneRC, sharedRC)
	}
	var sharedNodes int64
	for p := range alonePat {
		if alonePat[p] != 3*sharedPat[p] {
			t.Errorf("workers=%d pattern %v gauge moved %d with three fronts, %d with one; want 3:1",
				workers, core.MobilityPattern(p), alonePat[p], sharedPat[p])
		}
		sharedNodes += sharedPat[p]
	}
	if sharedNodes == 0 {
		t.Errorf("workers=%d: the shared front left no node in any pattern gauge", workers)
	}
}
