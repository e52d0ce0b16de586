package experiment

import (
	"fmt"
	"slices"
	"testing"

	"github.com/mobilegrid/adf/internal/engine"
)

// TestZeroAllocTick proves the per-tick pipeline, in the campus
// partition, reaches a zero-allocation steady state: after warming past the classifier window, the estimator
// creation for every node and several 10-second cluster rebuilds, driving
// further ticks allocates nothing. The large Duration only sizes the
// reserved metric series; the test drives the pipeline tick by tick.
func TestZeroAllocTick(t *testing.T) {
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
		t.Fatalf("steady-state tick allocates: %v allocs/tick, want 0", allocs)
	}
}

// TestZeroAllocTickLanes is TestZeroAllocTick for a pass of the whole
// paper campaign: four lanes — the ideal filter and three ADF factor
// views over one shared front — on one world, with the lane stages run
// inline (campaign Workers 1) and trailing the world stage on
// goroutines of their own (Workers 2). Past warmup a tick allocates
// nothing either way.
func TestZeroAllocTickLanes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := DefaultConfig()
			c.Duration = 4000
			c.Workers = workers
			p, _, err := buildPass(c.campaignTasks())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			now := 0.0
			tick := func() {
				now += c.SamplePeriod
				if err := p.Tick(now); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 600; i++ {
				tick()
			}
			if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
				t.Fatalf("steady-state four-lane tick allocates: %v allocs/tick, want 0", allocs)
			}
		})
	}
}

// TestZeroAllocTickSharded is TestZeroAllocTick for the region
// partition: past warmup, a whole tick — shard fan-out over the worker
// pool, the frame's hand-off to the trailing lane stage — allocates
// nothing.
func TestZeroAllocTickSharded(t *testing.T) {
	c := DefaultConfig()
	c.Duration = 4000
	c.ShardWorkers = 2
	p, _, err := c.buildPipeline(c.adfFactory(1.0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	now := 0.0
	tick := func() {
		now += c.SamplePeriod
		if err := p.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Fatalf("steady-state sharded tick allocates: %v allocs/tick, want 0", allocs)
	}
}

// TestShardWorkersDeterminism proves the region partition's merge-order
// contract at the metrics level: every series a Run produces is
// identical between ShardWorkers=1 (the sequential reference) and
// higher worker counts. Each lane stage walks the shards in ascending
// region order, so worker scheduling cannot reorder a single float
// addition.
func TestShardWorkersDeterminism(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 5
	base.Duration = 150
	base.Churn = &ChurnConfig{LeaveProb: 0.01, RejoinProb: 0.2}

	var ref *Run
	for _, w := range []int{1, 2, 8} {
		c := base
		c.ShardWorkers = w
		r, err := c.runFilter(c.adfFactory(1.0))
		if err != nil {
			t.Fatalf("ShardWorkers=%d: %v", w, err)
		}
		if ref == nil {
			ref = r
			continue
		}
		if !slices.Equal(ref.LUPerSecond.Series(), r.LUPerSecond.Series()) {
			t.Errorf("ShardWorkers=%d: LU series differ from 1 worker", w)
		}
		if !slices.Equal(ref.OfferedPerSecond.Series(), r.OfferedPerSecond.Series()) {
			t.Errorf("ShardWorkers=%d: offered series differ", w)
		}
		if !slices.Equal(ref.RMSENoLE.Series(), r.RMSENoLE.Series()) {
			t.Errorf("ShardWorkers=%d: no-LE RMSE series differ", w)
		}
		if !slices.Equal(ref.RMSEWithLE.Series(), r.RMSEWithLE.Series()) {
			t.Errorf("ShardWorkers=%d: with-LE RMSE series differ", w)
		}
		if at, bt := ref.Energy.Total(), r.Energy.Total(); at != bt {
			t.Errorf("ShardWorkers=%d: energy totals differ: %v vs %v", w, bt, at)
		}
		if ref.FinalClusters != r.FinalClusters {
			t.Errorf("ShardWorkers=%d: final cluster counts differ: %d vs %d",
				w, r.FinalClusters, ref.FinalClusters)
		}
	}
	if ref.FinalClusters == 0 {
		t.Error("sharded ADF run reports zero clusters; ShardFilters summary broken")
	}
}

// tickCounter counts a lane's OnTick calls and forwards every event to
// the lane's own sink.
type tickCounter struct {
	engine.Observer
	ticks int
}

func (o *tickCounter) OnTick(now float64) {
	o.ticks++
	o.Observer.OnTick(now)
}

// TestTickCountsAgree: at non-dyadic sample periods, where a clock that
// adds one period per round overshoots the horizon a round early, a
// run's OnTick count, the tick count its series and summaries are
// pre-sized for (engine.Ticks) and MeasureHotpath's Ticks are one
// number.
func TestTickCountsAgree(t *testing.T) {
	for _, tc := range []struct{ period, duration float64 }{{0.1, 2}, {0.3, 3}} {
		c := DefaultConfig()
		c.SamplePeriod, c.Duration = tc.period, tc.duration
		p, _, err := c.buildPipeline(c.adfFactory(1.0))
		if err != nil {
			t.Fatal(err)
		}
		counter := &tickCounter{Observer: p.Lanes[0].Observer}
		p.Lanes[0].Observer = counter
		if err := p.Run(c.Duration); err != nil {
			t.Fatal(err)
		}
		stats, err := c.MeasureHotpath()
		if err != nil {
			t.Fatal(err)
		}
		presized := engine.Ticks(c.SamplePeriod, c.Duration)
		if counter.ticks != presized || stats.Ticks != presized {
			t.Errorf("period %v, duration %v: OnTick %d times, pre-sized for %d ticks, MeasureHotpath drove %d",
				tc.period, tc.duration, counter.ticks, presized, stats.Ticks)
		}
	}
}

// benchmarkTick measures the steady-state cost of one pipeline tick at a
// given population scale and partition (shardWorkers 0 is the campus
// partition), allocation-counted. The timed loop ends with Close, which
// waits for the trailing lane stage to finish every tick, so every timed
// tick is paid in full.
func benchmarkTick(b *testing.B, perGroup, shardWorkers int) {
	c := DefaultConfig()
	c.PerGroup = perGroup
	c.ShardWorkers = shardWorkers
	const warmup = 200
	c.Duration = float64(b.N + warmup + 1)
	pipeline, _, err := c.buildPipeline(c.adfFactory(1.0))
	if err != nil {
		b.Fatal(err)
	}
	defer pipeline.Close()
	now := 0.0
	for i := 0; i < warmup; i++ {
		now += c.SamplePeriod
		if err := pipeline.Tick(now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += c.SamplePeriod
		if err := pipeline.Tick(now); err != nil {
			b.Fatal(err)
		}
	}
	pipeline.Close()
}

func BenchmarkTick140MN(b *testing.B)  { benchmarkTick(b, 5, 0) }
func BenchmarkTick1008MN(b *testing.B) { benchmarkTick(b, 36, 0) }

// BenchmarkTickSharded20k is the scale-20k shape: 20,020 nodes in the
// region partition on two workers.
func BenchmarkTickSharded20k(b *testing.B) { benchmarkTick(b, 715, 2) }

// BenchmarkFullRun1800s140MN times the paper's full 1800-second run of
// one ADF configuration at the Table-1 population, setup and quantile
// selection included: a one-lane pass. A campaign pays less per run,
// because its runs share passes (BenchmarkCampaign140MN).
func BenchmarkFullRun1800s140MN(b *testing.B) {
	c := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.runFilter(c.adfFactory(1.0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaign140MN times one seed's paper campaign — the ideal run
// and the ADF at 0.75, 1.00 and 1.25av over the Table-1 population for
// 1800 s, as Config.Run schedules it: one pass of four lanes, whose lane
// stages run inline at campaign Workers 1 and trail the world stage on
// goroutines of their own at Workers 2. It reports the passes and lanes
// per pass beside ns/op.
func BenchmarkCampaign140MN(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := DefaultConfig()
			c.Workers = workers
			tasks := c.campaignTasks()
			passes := planPasses(tasks)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(passes)), "passes")
			b.ReportMetric(float64(len(tasks))/float64(len(passes)), "lanes/pass")
		})
	}
}
