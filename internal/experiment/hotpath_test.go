package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/engine"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/obs"
)

// TestZeroAllocTick proves the per-tick pipeline reaches a
// zero-allocation steady state in every shape a one-lane run takes:
// after warming past the classifier window, the estimator creation for
// every node and several 10-second cluster rebuilds, driving further
// ticks allocates nothing. The cases cover both partitions, every
// estimator, the general DF, churn, Gilbert–Elliott outages and the
// obs-enabled path, whose span ring and local histograms flush with a
// fixed number of atomic adds. TestZeroAllocTickLanes covers a
// campaign pass.
func TestZeroAllocTick(t *testing.T) {
	adf := func(c Config) (*engine.Pipeline, error) {
		p, _, err := c.buildPipeline(c.adfFactory(1.0))
		return p, err
	}
	generalDF := func(c Config) (*engine.Pipeline, error) {
		mean := PopulationMeanSpeed(campus.Table1Population(campus.New()))
		p, _, err := c.buildPipeline(c.generalDFFactory(1.0, mean))
		return p, err
	}
	cases := []allocCase{
		{name: "campus", build: adf},
		{name: "sharded", set: func(c *Config) { c.ShardWorkers = 2 }, build: adf},
		{name: "obs-enabled", build: adf, obs: true},
		{name: "general-df", build: generalDF},
		{name: "churn", set: func(c *Config) {
			c.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.05}
		}, build: adf},
		{name: "gilbert-elliott", set: func(c *Config) {
			c.Burst = &gateway.BurstConfig{PEnterOutage: 0.02, PExitOutage: 0.2, DropUp: 0.01, DropDown: 1}
		}, build: adf},
	}
	for _, name := range EstimatorNames() {
		cases = append(cases, allocCase{name: "estimator=" + name, set: func(c *Config) { c.Estimator = name }, build: adf})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkZeroAllocTick(t, tc) })
	}
}

// TestZeroAllocTickLanes holds a whole campaign pass to the same
// zero-allocation steady state: four lanes — the ideal filter and three
// ADF factor views over one shared front — with the lane stages inline
// at Workers 1 and trailing the world stage on goroutines of their own
// at Workers 2.
func TestZeroAllocTickLanes(t *testing.T) {
	campaign := func(c Config) (*engine.Pipeline, error) {
		p, _, err := buildPass(c.campaignTasks())
		return p, err
	}
	for _, workers := range []int{1, 2} {
		tc := allocCase{set: func(c *Config) { c.Workers = workers }, build: campaign}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { checkZeroAllocTick(t, tc) })
	}
}

// allocCase is one pipeline shape for checkZeroAllocTick: set adjusts
// the default config, build makes the pipeline and obs turns the
// observability path on for the case.
type allocCase struct {
	name  string
	set   func(*Config)
	build func(Config) (*engine.Pipeline, error)
	obs   bool
}

// checkZeroAllocTick builds tc's pipeline, warms it for 600 ticks and
// fails unless further ticks allocate nothing. The large Duration only
// sizes the reserved metric series; the check drives the pipeline tick
// by tick.
func checkZeroAllocTick(t *testing.T, tc allocCase) {
	t.Helper()
	if tc.obs {
		was := obs.Enabled()
		obs.SetEnabled(true)
		defer obs.SetEnabled(was)
	}
	c := DefaultConfig()
	c.Duration = 4000
	if tc.set != nil {
		tc.set(&c)
	}
	p, err := tc.build(c)
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
	// Ten ticks per run: AllocsPerRun reports the integer mean, so the
	// 200 measured ticks must make fewer than 20 heap allocations in
	// all. The rare births at a new cluster-count or churn-bucket peak
	// pass; amortised growth, such as an append on every estimator
	// update, does not.
	tenTicks := func() {
		for i := 0; i < 10; i++ {
			tick()
		}
	}
	if allocs := testing.AllocsPerRun(20, tenTicks); allocs != 0 {
		t.Fatalf("steady state allocates: %v allocs per 10 ticks, want 0", allocs)
	}
}

// TestSetupAllocsPerNode holds the build to its budget: a one-tick pass
// of the ideal and ADF lanes in the region partition at 5,012 nodes —
// the population, the gateways, the lanes' brokers and sinks, every
// shard's filters and the first tick's births into all of them — makes
// at most 3 allocations per node. Per-node state comes in blocks: the
// nodes, each lane's estimators and each shard's ADF slots and rings
// are one allocation apiece, so what remains per node is its random
// stream and mobility model (a waypoint mover shares its route).
func TestSetupAllocsPerNode(t *testing.T) {
	c := DefaultConfig()
	c.PerGroup = 179
	c.Duration = c.SamplePeriod
	c.Workers = 1
	c.ShardWorkers = 1
	c.DTHFactors = []float64{1.0}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, _, err := buildPass(c.campaignTasks())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(c.Duration); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.Mallocs-before.Mallocs) / float64(len(p.Nodes))
	t.Logf("%d nodes: %.2f allocs/node", len(p.Nodes), perNode)
	if perNode > 3 {
		t.Fatalf("one-tick set-up makes %.2f allocs/node, want at most 3", perNode)
	}
}

// TestBlockBrokerBirthAllocs: a lane's broker on the experiment's
// estimator factory births a node — its record and its estimator — with
// no allocation once Preallocate has sized the location DB, for every
// estimator kind: the lane's one block, which the first birth
// allocates, holds every estimator.
func TestBlockBrokerBirthAllocs(t *testing.T) {
	const births = 1000
	for _, name := range EstimatorNames() {
		f, err := DefaultConfig().estimatorFactory(name, births+1)
		if err != nil {
			t.Fatal(err)
		}
		b := broker.New(f)
		b.Preallocate(births + 1)
		node := 0
		allocs := testing.AllocsPerRun(births, func() {
			b.Step(node, 1, geo.Point{X: float64(node)}, true)
			node++
		})
		if allocs != 0 {
			t.Errorf("%s: allocs per broker birth = %v, want 0", name, allocs)
		}
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
