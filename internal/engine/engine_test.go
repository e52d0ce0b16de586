package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sim"
)

// countingObserver tallies every event and can be told to fail.
type countingObserver struct {
	offered, transmitted, errs, ticks int
	failOffered                       error
	failTick                          error
}

func (o *countingObserver) OnOffered(Sample) error { o.offered++; return o.failOffered }
func (o *countingObserver) OnTransmitted(Sample) error {
	o.transmitted++
	return nil
}
func (o *countingObserver) OnError(Sample, Variant, float64) error { o.errs++; return nil }
func (o *countingObserver) OnTick(float64) error                   { o.ticks++; return o.failTick }

// newTestPipeline builds a one-per-group campus population (28 nodes)
// behind an ideal filter, in the campus partition.
func newTestPipeline(t *testing.T, dropProb float64, churn *KeyedChurn, obs Observer) *Pipeline {
	t.Helper()
	world := campus.New()
	streams := sim.NewStreams(7)
	nodes, err := node.Population(campus.PopulationN(world, 1), world, streams)
	if err != nil {
		t.Fatal(err)
	}
	net, err := gateway.NewNetwork(world, dropProb, streams)
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{
		Nodes:        nodes,
		Net:          net,
		NewFilters:   oneLane(idealFactory),
		Lanes:        []Lane{{NoLE: broker.New(nil), WithLE: broker.New(nil), Observer: obs}},
		Churn:        churn,
		SamplePeriod: 1,
	}
}

func idealFactory() (filter.Filter, error) { return filter.NewIdealLU(), nil }

// oneLane adapts a single-filter factory to NewFilters for a one-lane
// pipeline.
func oneLane(mk func() (filter.Filter, error)) func() ([]filter.Filter, error) {
	return func() ([]filter.Filter, error) {
		f, err := mk()
		if err != nil {
			return nil, err
		}
		return []filter.Filter{f}, nil
	}
}

func TestPipelineIdealNoDrop(t *testing.T) {
	obs := &countingObserver{}
	p := newTestPipeline(t, 0, nil, obs)
	if err := p.Run(sim.New(), 10); err != nil {
		t.Fatal(err)
	}
	nodes := len(p.Nodes)
	if obs.ticks != 10 {
		t.Errorf("ticks = %d, want 10", obs.ticks)
	}
	// With no drops every sample is offered, and the ideal filter
	// transmits each one.
	if obs.offered != nodes*10 || obs.transmitted != nodes*10 {
		t.Errorf("offered/transmitted = %d/%d, want %d/%d",
			obs.offered, obs.transmitted, nodes*10, nodes*10)
	}
	// Both broker variants hold a belief from the first tick on, so the
	// measurement stage fires twice per node per tick.
	if obs.errs != 2*nodes*10 {
		t.Errorf("errs = %d, want %d", obs.errs, 2*nodes*10)
	}
	if got := p.Lanes[0].NoLE.NodeCount(); got != nodes {
		t.Errorf("broker tracks %d nodes, want %d", got, nodes)
	}
}

func TestPipelineObserverErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	obs := &countingObserver{failOffered: boom}
	p := newTestPipeline(t, 0, nil, obs)
	if err := p.Run(sim.New(), 10); !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want boom", err)
	}
	if obs.offered != 1 {
		t.Errorf("offered = %d, want 1 (abort on first event)", obs.offered)
	}
	if obs.ticks != 0 {
		t.Errorf("ticks = %d, want 0 (tick aborted mid-round)", obs.ticks)
	}
}

func TestPipelineTickErrorAborts(t *testing.T) {
	boom := errors.New("tick boom")
	obs := &countingObserver{failTick: boom}
	p := newTestPipeline(t, 0, nil, obs)
	if err := p.Run(sim.New(), 10); !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want boom", err)
	}
	if obs.ticks != 1 {
		t.Errorf("ticks = %d, want 1", obs.ticks)
	}
}

func TestPipelineValidate(t *testing.T) {
	p := newTestPipeline(t, 0, nil, nil)
	if err := p.Validate(); err != nil {
		t.Errorf("valid pipeline rejected: %v", err)
	}
	breakages := []func(*Pipeline){
		func(p *Pipeline) { p.Nodes = nil },
		func(p *Pipeline) { p.Net = nil },
		func(p *Pipeline) { p.NewFilters = nil },
		func(p *Pipeline) { p.Lanes = nil },
		func(p *Pipeline) { p.Lanes[0].NoLE = nil },
		func(p *Pipeline) { p.Lanes[0].WithLE = nil },
		func(p *Pipeline) { p.SamplePeriod = 0 },
		func(p *Pipeline) { p.Workers = -1 },
	}
	for i, breakit := range breakages {
		q := newTestPipeline(t, 0, nil, nil)
		breakit(q)
		if err := q.Validate(); err == nil {
			t.Errorf("breakage %d not rejected", i)
		}
		if err := q.Run(sim.New(), 1); err == nil {
			t.Errorf("breakage %d: Run did not surface wiring error", i)
		}
	}
}

func TestChurnForgetAndRejoin(t *testing.T) {
	// leaveProb 1 empties the grid on the first tick; rejoinProb 1 brings
	// everyone back (and processed) on the next.
	churn := NewKeyedChurn(1, 1, sim.NewKeyed(1))
	obs := &countingObserver{}
	p := newTestPipeline(t, 0, churn, obs)
	nodes := len(p.Nodes)

	// The lanes run inline, so each Tick has reached the observer when
	// it returns.
	if err := p.Tick(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if churn.AbsentCount() != nodes {
		t.Fatalf("absent = %d after leave tick, want %d", churn.AbsentCount(), nodes)
	}
	if obs.offered != 0 {
		t.Errorf("offered = %d during mass departure, want 0", obs.offered)
	}
	if got := p.Lanes[0].NoLE.NodeCount(); got != 0 {
		t.Errorf("broker still tracks %d nodes after departure", got)
	}

	if err := p.Tick(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if churn.AbsentCount() != 0 {
		t.Errorf("absent = %d after rejoin tick, want 0", churn.AbsentCount())
	}
	if obs.offered != nodes {
		t.Errorf("offered = %d after rejoin, want %d (rejoiners report same tick)", obs.offered, nodes)
	}
}

func TestChurnStepDeterministic(t *testing.T) {
	a := NewKeyedChurn(0.3, 0.5, sim.NewKeyed(42))
	b := NewKeyedChurn(0.3, 0.5, sim.NewKeyed(42))
	a.InitParts([][]int{seqIDs(10)})
	b.InitParts([][]int{seqIDs(10)})
	var sa, sb recordSink
	for tick := uint64(1); tick <= 200; tick++ {
		a.ProcessPart(0, tick, &sa)
		b.ProcessPart(0, tick, &sb)
		for id := 0; id < 10; id++ {
			if a.Absent(id) != b.Absent(id) {
				t.Fatalf("tick %d node %d: churn diverged", tick, id)
			}
		}
	}
	if a.AbsentCount() != b.AbsentCount() {
		t.Errorf("absent counts diverged: %d vs %d", a.AbsentCount(), b.AbsentCount())
	}
	if len(sa.left) == 0 || len(sa.rejoined) == 0 {
		t.Errorf("200 ticks drew %d departures and %d rejoins; want both", len(sa.left), len(sa.rejoined))
	}
	if !equalInts(sa.left, sb.left) || !equalInts(sa.rejoined, sb.rejoined) {
		t.Error("equal seeds delivered different churn event sequences")
	}
}

func TestVariantString(t *testing.T) {
	if NoLE.String() != "no-le" || WithLE.String() != "with-le" {
		t.Errorf("variant names = %q/%q", NoLE.String(), WithLE.String())
	}
}

// tickFailObserver counts every event and fails OnOffered for the
// samples of one tick.
type tickFailObserver struct {
	events int
	ticks  []float64
	failAt float64
	err    error
}

func (o *tickFailObserver) OnOffered(s Sample) error {
	o.events++
	if s.Time == o.failAt {
		return o.err
	}
	return nil
}
func (o *tickFailObserver) OnTransmitted(Sample) error             { o.events++; return nil }
func (o *tickFailObserver) OnError(Sample, Variant, float64) error { o.events++; return nil }
func (o *tickFailObserver) OnTick(now float64) error {
	o.events++
	o.ticks = append(o.ticks, now)
	return nil
}

// TestPipelineStageLifecycle pins the error and restart contract of
// Tick and Close for a caller that ticks the pipeline itself. An
// OnOffered error raised in tick k surfaces from Tick(k) when the lanes
// run inline, and from a later Tick or from Close when they trail the
// world stage. Either way no observer receives an event of a later
// tick, and every later Tick or Close returns the same error. Close is
// idempotent, works on a pipeline that never ticked, and a Tick after
// Close starts the lane stages again.
func TestPipelineStageLifecycle(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{0, 2} {
		for _, concurrent := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d concurrent=%v", workers, concurrent)
			obs := &tickFailObserver{failAt: 3, err: boom}
			p := newTestSharded(t, 5, 0, [2]float64{}, workers, idealFactory)
			p.Concurrent = concurrent
			p.Lanes[0].Observer = obs
			var err error
			tick := 0
			for err == nil && tick < 8 {
				tick++
				err = p.Tick(float64(tick))
			}
			if !concurrent && tick != 3 {
				t.Errorf("%s: the error of tick 3 surfaced from Tick(%d)", name, tick)
			}
			if err != nil && !errors.Is(err, boom) {
				t.Fatalf("%s: Tick(%d) = %v, want boom", name, tick, err)
			}
			for i := 0; i < 2; i++ {
				if err := p.Close(); !errors.Is(err, boom) {
					t.Errorf("%s: Close #%d = %v, want boom", name, i+1, err)
				}
			}
			if len(obs.ticks) != 2 || obs.ticks[1] != 2 {
				t.Errorf("%s: OnTick saw %v, want [1 2]", name, obs.ticks)
			}
			seen := obs.events
			if err := p.Tick(float64(tick + 1)); !errors.Is(err, boom) {
				t.Errorf("%s: Tick after the error = %v, want boom", name, err)
			}
			if err := p.Close(); !errors.Is(err, boom) {
				t.Errorf("%s: Close after the error = %v, want boom", name, err)
			}
			if obs.events != seen {
				t.Errorf("%s: observers got %d events after the error", name, obs.events-seen)
			}
		}
	}

	// Close before any tick, twice; then tick, close, tick again on
	// restarted lane stages and shard pool: every round reaches the
	// observers exactly once.
	obs := &tickFailObserver{}
	p := newTestSharded(t, 5, 0, [2]float64{}, 2, idealFactory)
	p.Concurrent = true
	p.Lanes[0].Observer = obs
	baseline := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		if err := p.Close(); err != nil {
			t.Fatalf("Close on an unticked pipeline = %v", err)
		}
	}
	for tick := 1; tick <= 3; tick++ {
		if err := p.Tick(float64(tick)); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if p.pool != nil || p.lanesRunning {
			t.Fatal("Close left the shard pool or the lane stages running")
		}
		if len(obs.ticks) != tick || obs.ticks[tick-1] != float64(tick) {
			t.Fatalf("after Tick(%d) and Close, OnTick saw %v", tick, obs.ticks)
		}
	}
	seen := obs.events
	if err := p.Close(); err != nil || obs.events != seen {
		t.Errorf("second Close = %v and delivered %d events, want nil and 0", err, obs.events-seen)
	}
	waitForGoroutines(t, baseline)
}
