package engine

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/sim"
)

// countingObserver tallies every event and records the tick times.
type countingObserver struct {
	offered, transmitted, errs int
	ticks                      []float64
}

func (o *countingObserver) OnOffered(Sample)                 { o.offered++ }
func (o *countingObserver) OnTransmitted(Sample)             { o.transmitted++ }
func (o *countingObserver) OnError(Sample, Variant, float64) { o.errs++ }
func (o *countingObserver) OnTick(now float64)               { o.ticks = append(o.ticks, now) }

// events counts every event the observer received.
func (o *countingObserver) events() int { return o.offered + o.transmitted + o.errs + len(o.ticks) }

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
		Lanes:        []Lane{{Broker: broker.New(nil), Observer: obs}},
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
	if err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	nodes := len(p.Nodes)
	if len(obs.ticks) != 10 {
		t.Errorf("ticks = %d, want 10", len(obs.ticks))
	}
	// With no drops every sample is offered, and the ideal filter
	// transmits each one.
	if obs.offered != nodes*10 || obs.transmitted != nodes*10 {
		t.Errorf("offered/transmitted = %d/%d, want %d/%d",
			obs.offered, obs.transmitted, nodes*10, nodes*10)
	}
	// The broker holds both beliefs from the first tick on, so the
	// measurement stage fires twice per node per tick.
	if obs.errs != 2*nodes*10 {
		t.Errorf("errs = %d, want %d", obs.errs, 2*nodes*10)
	}
	if got := p.Lanes[0].Broker.NodeCount(); got != nodes {
		t.Errorf("broker tracks %d nodes, want %d", got, nodes)
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
		func(p *Pipeline) { p.Lanes[0].Broker = nil },
		func(p *Pipeline) { p.SamplePeriod = 0 },
		func(p *Pipeline) { p.Workers = -1 },
	}
	for i, breakit := range breakages {
		q := newTestPipeline(t, 0, nil, nil)
		breakit(q)
		if err := q.Validate(); err == nil {
			t.Errorf("breakage %d not rejected", i)
		}
		if err := q.Run(1); err == nil {
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
	p.Close()
	if churn.AbsentCount() != nodes {
		t.Fatalf("absent = %d after leave tick, want %d", churn.AbsentCount(), nodes)
	}
	if obs.offered != 0 {
		t.Errorf("offered = %d during mass departure, want 0", obs.offered)
	}
	if got := p.Lanes[0].Broker.NodeCount(); got != 0 {
		t.Errorf("broker still tracks %d nodes after departure", got)
	}

	if err := p.Tick(2); err != nil {
		t.Fatal(err)
	}
	p.Close()
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

// TestPipelineStageLifecycle pins the restart contract of Tick and
// Close for a caller that ticks the pipeline itself: Close is
// idempotent, works on a pipeline that never ticked, and a Tick after
// Close starts the lane stages and the shard pool again, with every
// round reaching the observers exactly once.
func TestPipelineStageLifecycle(t *testing.T) {
	obs := &countingObserver{}
	p := newTestSharded(t, 5, 0, [2]float64{}, 2, idealFactory)
	p.Concurrent = true
	p.Lanes[0].Observer = obs
	baseline := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		p.Close()
	}
	for tick := 1; tick <= 3; tick++ {
		if err := p.Tick(float64(tick)); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if p.pool != nil || p.lanesRunning {
			t.Fatal("Close left the shard pool or the lane stages running")
		}
		if len(obs.ticks) != tick || obs.ticks[tick-1] != float64(tick) {
			t.Fatalf("after Tick(%d) and Close, OnTick saw %v", tick, obs.ticks)
		}
	}
	seen := obs.events()
	p.Close()
	if obs.events() != seen {
		t.Errorf("second Close delivered %d events, want 0", obs.events()-seen)
	}
	waitForGoroutines(t, baseline)
}

// TestTicksMatchTickTime: Ticks counts exactly the rounds whose
// TickTime lies within the horizon, over non-dyadic periods too, and at
// period 1 every TickTime is bit for bit the time of a clock that adds
// one period per round.
func TestTicksMatchTickTime(t *testing.T) {
	for _, period := range []float64{0.1, 0.3, 0.7, 1.0 / 3, 1, 2.5} {
		for h := 0; h <= 400; h++ {
			horizon := float64(h) / 4
			n := Ticks(period, horizon)
			if n < 0 || (n > 0 && TickTime(period, n) > horizon) || TickTime(period, n+1) <= horizon {
				t.Fatalf("Ticks(%v, %v) = %d: rounds %v and %v straddle the horizon wrongly",
					period, horizon, n, TickTime(period, n), TickTime(period, n+1))
			}
		}
	}
	now := 0.0
	for k := 1; k <= 100000; k++ {
		now++
		if TickTime(1, k) != now {
			t.Fatalf("TickTime(1, %d) = %v, an added clock reads %v", k, TickTime(1, k), now)
		}
	}
}

// TestRunTicksAtTickTimes: Run ticks the pipeline once per round Ticks
// counts, at the round's TickTime, at a period whose added clock would
// overshoot the horizon one round early.
func TestRunTicksAtTickTimes(t *testing.T) {
	obs := &countingObserver{}
	p := newTestPipeline(t, 0, nil, obs)
	p.SamplePeriod = 0.1
	if err := p.Run(2); err != nil {
		t.Fatal(err)
	}
	if n := Ticks(0.1, 2); len(obs.ticks) != n || n != 20 {
		t.Fatalf("Run(2) at period 0.1 made %d ticks, Ticks says %d, want 20", len(obs.ticks), n)
	}
	for k, now := range obs.ticks {
		if now != TickTime(0.1, k+1) {
			t.Errorf("tick %d at %v, want %v", k+1, now, TickTime(0.1, k+1))
		}
	}
}

// TestTickRejectsClockRegression: the monotone-clock invariant is Tick's
// input validation. A time earlier than the previous tick's, or one that
// is not finite, returns ErrClock and leaves the pipeline where it was;
// an equal time is legal.
func TestTickRejectsClockRegression(t *testing.T) {
	p := newTestPipeline(t, 0, nil, nil)
	if err := p.Tick(math.NaN()); !errors.Is(err, ErrClock) {
		t.Fatalf("first Tick(NaN) = %v, want ErrClock", err)
	}
	for _, now := range []float64{5, 5} {
		if err := p.Tick(now); err != nil {
			t.Fatalf("Tick(%v): %v", now, err)
		}
	}
	before := p.StateDigest()
	for _, now := range []float64{4, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := p.Tick(now); !errors.Is(err, ErrClock) {
			t.Errorf("Tick(%v) after 5 = %v, want ErrClock", now, err)
		}
	}
	if p.tick != 2 || p.StateDigest() != before {
		t.Errorf("rejected ticks moved the pipeline: %d rounds, digest changed %v", p.tick, p.StateDigest() != before)
	}
	if err := p.Tick(6); err != nil {
		t.Errorf("Tick(6) after the rejections: %v", err)
	}
}
