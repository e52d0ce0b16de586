package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/obs"
)

// Pipeline is the whole-tick simulation pipeline: mobility advance →
// churn → gateway collect → filter → broker delivery → error
// measurement. One pipeline is one world — population, gateways, churn —
// simulated once per tick, and one or more lanes, each a filter
// configuration with its own broker and observer, that decide on the
// world's samples side by side. A one-filter run is one lane.
//
// A tick runs as two kinds of stage joined by a ring of preallocated
// tick frames:
//
//   - The world stage advances every node, drains the churn timeline,
//     collects every present node's sample through its gateway once and
//     lets each lane's filter decide on it, lane-major. It writes the
//     tick into a frame: the true positions, each member's state
//     (absent, lost or reached), each lane's transmit bits, the tick's
//     departures and its observability flag.
//   - One lane stage per lane reads the frame: it forgets the tick's
//     departures from its broker, steps it once on every present
//     member, measures both error distances and calls the lane's
//     observer, shard by shard in shard order, then the observer's OnTick.
//
// The world stage owns the nodes, the gateways, the churn timeline and
// the filters; a lane stage owns its broker, its observer and its
// observability batch. Lanes never read each other's state, so each
// lane computes exactly what a pipeline of its own would.
//
// Concurrent selects the schedule. False runs the lane stages inline
// after the world stage each tick — the sequential reference. True runs
// each lane stage on a goroutine of its own that trails the world stage
// by fewer than K ticks, K the ring's frame count: Tick publishes the
// tick's frame and returns, blocking only while every frame is still
// held by a lane, and Close waits for the lanes to finish every
// published tick. Results are bit for bit the same either way.
//
// The world stage's per-node work runs over a partition of the
// population into shards. Workers selects the partition:
//
//   - 0, the campus partition: one shard owns every node and every
//     region's gateway, and each lane's one filter instance sees the
//     whole campus — the paper's reading, in which the ADF clusters all
//     nodes together. The shard visits nodes in slice order.
//   - N ≥ 1, the region partition: one shard per campus region, each
//     with its own gateway and its own filter instance per lane, so a
//     clustering filter like the ADF clusters per region. The world
//     stage runs the shards on N workers (1 runs them inline).
//     Per-node filters (GeneralDF, IdealLU) behave identically in both
//     partitions.
//
// A shard job touches only shard-local state: its members' mobility
// (each node draws only from its private stream), its gateways (whose
// draws are keyed by node and time), its filter instances, its churn
// timeline partition and its part of the frame. Cross-shard effects are
// applied in shard order (ascending region ID), never in completion
// order: observability batches by the synchronous fold at the end of
// the world stage, broker steps and observer events by each lane stage,
// which walks the shards in order. Neither Workers nor Concurrent ever
// changes what a stage computes or the order its effects are applied in.
type Pipeline struct {
	// Nodes is the mobile population. Each node's mobility draws only
	// from its private stream, so the shards advance their members
	// concurrently and every partition reproduces the same positions.
	Nodes []*node.Node
	// Net is the per-region wireless gateway network.
	Net *gateway.Network
	// NewFilters builds one shard's filters, one per lane in lane order.
	// It is called once per shard, so filters of one call may share
	// state — ADF factor views over one front (core.ADF.At) — and
	// filters of different calls never do. Build pre-sizes every
	// filter that is a filter.Preallocator by its shard's members.
	NewFilters func() ([]filter.Filter, error)
	// Lanes are the filter configurations simulated on this world; each
	// lane's filters come from NewFilters.
	Lanes []Lane
	// Churn, when non-nil, lets nodes leave and rejoin the grid. Its
	// draws are order-independent, so each shard drains its own
	// timeline partition at the start of its stage.
	Churn *KeyedChurn
	// SamplePeriod is the sampling interval in virtual seconds.
	SamplePeriod float64
	// Workers selects the partition: 0 is the campus partition, N ≥ 1
	// the region partition on a pool of N workers (1 runs the shard jobs
	// inline).
	Workers int
	// Concurrent runs each lane stage on a goroutine of its own,
	// trailing the world stage on the ring of tick frames; false runs
	// the lane stages inline after the world stage each tick.
	Concurrent bool

	built  bool
	shards []*shardCtx
	// jobs is the world stage's job list: every shard index.
	jobs []int
	pool *shardPool
	// ring is the tick-frame ring, allocated at build.
	ring *ring
	// stages holds the lane stages, in lane order; lanesRunning is set
	// while they have goroutines.
	stages       []laneStage
	lanesRunning bool

	// now is the tick being computed, and after Tick returns the last
	// tick computed.
	now   float64
	obsOn bool
	tid   uint32
	// masters are the lanes' world-side observability batches, each
	// flushed like a pipeline of its own.
	masters []obs.TickLocal
	// tick counts processed sampling rounds; it keys the churn timeline.
	tick uint64
}

// Lane is one filter configuration on a pipeline's world: the broker
// stepped on the lane's filter verdicts, and the observer that receives
// the lane's events.
type Lane struct {
	// Broker is the lane's location DB with its Location Estimator: the
	// wired-grid side, one per lane across all shards, touched only by
	// the lane's stage. Each step's belief is the with-LE belief and the
	// node's last report the no-LE one (broker.Belief). Its dense window
	// is Preallocate-d at build, so a steady tick allocates no record.
	Broker *broker.Broker
	// Observer receives the lane's events from the lane stage, in shard
	// order; it is never called concurrently with itself, but the
	// observers of different lanes may run concurrently. Nil means no
	// sink: build substitutes BaseObserver{}.
	Observer
}

// shardCtx is one shard's private state: everything its world-stage job
// touches without synchronisation.
type shardCtx struct {
	idx int
	// name is the region ID in the region partition, "campus" in the
	// campus partition.
	name string
	// regions are the home regions of the shard's members, ascending by
	// ID, each with its gateway and its labeled LU counters.
	regions []shardRegion
	// members are the owned node indices, ascending — the same relative
	// order the node slice has, so every partition visits a region's
	// nodes in the identical order.
	members []int
	// slot[k] indexes regions with member k's home region.
	slot []int32
	// ids[k] is member k's node ID. Like slot and the regions' home
	// regions it is written once at build, so the lane stages read a
	// member's identity without touching the nodes the world stage
	// advances.
	ids []int32
	// lus[k] is member k's sample as its gateway forwarded it this tick,
	// valid when the member is reached; every lane's filter is offered it.
	lus []filter.LU
	// lanes holds the shard's per-lane state, in lane order.
	lanes []shardLane
	// out is the shard's part of the frame the world stage is filling.
	out *frameShard
	// shardH is the region shard's own latency series; nil in the
	// campus partition, whose shard span is the whole nodes stage.
	shardH *obs.Histogram
	// startNS/advancedNS/endNS are the shard job's span endpoints (the
	// advance stage ends at advancedNS), read inside the job and
	// recorded sequentially at the fold.
	startNS, advancedNS, endNS int64
}

// shardRegion is one home region inside a shard: the region, its
// gateway and its labeled LU counters.
type shardRegion struct {
	home            *campus.Region
	gw              gateway.Collector
	offeredC, sentC *obs.Counter
}

// Member states after the shard's churn and collect stages.
const (
	// absent: the member is off the grid; no lane sees it this tick.
	absent uint8 = iota
	// lost: the gateway dropped the sample; the broker still steps.
	lost
	// reached: the sample reached the lanes' filters.
	reached
)

// shardLane is one lane's world-stage state inside a shard.
type shardLane struct {
	filt filter.Filter
	// local batches the lane's filter and churn tallies; folded into the
	// lane's master batch in shard order.
	local obs.TickLocal
	// offered/sent are the lane's per-region LU tallies, indexed like
	// the shard's regions, accumulated between flushes.
	offered, sent []uint64
}

// ChurnEvent implements ChurnSink for the shard's own churn partition.
// Every lane tallies the event in its shard-local batch, as its own run
// would. A departure is forgotten by every lane's filter here and
// recorded in the frame, so each lane stage forgets it from its broker
// before it steps the tick — all shard-safe, since the shard only ever
// reports owned nodes.
func (sh *shardCtx) ChurnEvent(id int, left bool) {
	if left {
		sh.out.departed = append(sh.out.departed, int32(id))
	}
	for l := range sh.lanes {
		ln := &sh.lanes[l]
		if !left {
			ln.local.ChurnRejoined++
			continue
		}
		ln.local.ChurnLeft++
		ln.filt.Forget(id)
	}
}

// preallocate sizes the shard's filters by the shard alone: ID-keyed
// windows end at its highest member ID + 1, and stores packed by first
// offer hold its member count, so the first tick's births grow nothing.
func (sh *shardCtx) preallocate() {
	span := 0
	for _, id := range sh.ids {
		span = max(span, int(id)+1)
	}
	for l := range sh.lanes {
		if pa, ok := sh.lanes[l].filt.(filter.Preallocator); ok {
			pa.PreallocateMembers(span, len(sh.members))
		}
	}
}

// Validate reports wiring errors.
func (p *Pipeline) Validate() error {
	switch {
	case len(p.Nodes) == 0:
		return fmt.Errorf("engine: pipeline has no nodes")
	case p.Net == nil:
		return fmt.Errorf("engine: pipeline has no gateway network")
	case p.NewFilters == nil:
		return fmt.Errorf("engine: pipeline has no filter factory")
	case len(p.Lanes) == 0:
		return fmt.Errorf("engine: pipeline has no lanes")
	case p.SamplePeriod <= 0:
		return fmt.Errorf("engine: non-positive sample period %v", p.SamplePeriod)
	case p.Workers < 0:
		return fmt.Errorf("engine: negative Workers %d", p.Workers)
	}
	for l, ln := range p.Lanes {
		if ln.Broker == nil {
			return fmt.Errorf("engine: lane %d has no broker", l)
		}
	}
	return nil
}

// build resolves the partition: the home regions in ascending ID order,
// grouped into one campus shard or one shard per region, each shard
// with its gateways, one filter per lane and its member list. It is the
// one place per-node state is pre-sized: each shard's filters by the
// shard's members, the lanes' broker windows by the whole population.
// It also builds the lane stages and fills the ring with its frames.
func (p *Pipeline) build() error {
	if err := p.Validate(); err != nil {
		return err
	}
	homes := make(map[campus.RegionID]*campus.Region)
	var ids []campus.RegionID
	for _, n := range p.Nodes {
		if id := n.Region().ID; homes[id] == nil {
			homes[id] = n.Region()
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	groups := [][]campus.RegionID{ids}
	if p.Workers > 0 {
		groups = make([][]campus.RegionID, len(ids))
		for i, id := range ids {
			groups[i] = []campus.RegionID{id}
		}
	}
	type place struct{ shard, slot int }
	placeOf := make(map[campus.RegionID]place, len(ids))
	p.shards = make([]*shardCtx, len(groups))
	for i, group := range groups {
		name := "campus"
		if p.Workers > 0 {
			name = string(group[0])
		}
		filts, err := p.NewFilters()
		if err != nil {
			return fmt.Errorf("engine: shard %s filter: %w", name, err)
		}
		if len(filts) != len(p.Lanes) {
			return fmt.Errorf("engine: shard %s got %d filters for %d lanes", name, len(filts), len(p.Lanes))
		}
		sh := &shardCtx{idx: i, name: name, lanes: make([]shardLane, len(p.Lanes))}
		for l := range sh.lanes {
			sh.lanes[l] = shardLane{
				filt:    filts[l],
				offered: make([]uint64, len(group)),
				sent:    make([]uint64, len(group)),
			}
			sh.lanes[l].local.Init()
		}
		if p.Workers > 0 {
			sh.shardH = obs.ShardSeconds(name)
		}
		for slot, id := range group {
			gw, err := p.Net.Gateway(id)
			if err != nil {
				return err
			}
			sh.regions = append(sh.regions, shardRegion{
				home:     homes[id],
				gw:       gw,
				offeredC: obs.RegionOffered(string(id)),
				sentC:    obs.RegionSent(string(id)),
			})
			placeOf[id] = place{shard: i, slot: slot}
		}
		p.shards[i] = sh
	}
	maxID := 0
	for i, n := range p.Nodes {
		at := placeOf[n.Region().ID]
		sh := p.shards[at.shard]
		sh.members = append(sh.members, i)
		sh.slot = append(sh.slot, int32(at.slot))
		sh.ids = append(sh.ids, int32(n.ID()))
		maxID = max(maxID, n.ID())
	}
	for _, sh := range p.shards {
		sh.lus = make([]filter.LU, len(sh.members))
		sh.preallocate()
		if p.Workers > 0 {
			obs.ShardNodes(sh.name).Set(int64(len(sh.members)))
		}
	}
	p.stages = make([]laneStage, len(p.Lanes))
	p.masters = make([]obs.TickLocal, len(p.Lanes))
	for l := range p.Lanes {
		ln := &p.Lanes[l]
		ln.Broker.Preallocate(maxID + 1)
		if ln.Observer == nil {
			ln.Observer = BaseObserver{}
		}
		st := &p.stages[l]
		*st = laneStage{idx: l, b: ln.Broker, ob: ln.Observer, tid: obs.NextTID()}
		p.masters[l].Init()
	}
	frames := 1
	if p.Concurrent {
		frames = ringFrames(len(p.Nodes), len(p.Lanes))
	}
	p.ring = newRing(frames, p.shards, len(p.Lanes))
	p.jobs = make([]int, len(p.shards))
	for i := range p.jobs {
		p.jobs[i] = i
	}
	p.tid = obs.NextTID()
	if p.Churn != nil {
		partIDs := make([][]int, len(p.shards))
		for i, sh := range p.shards {
			ids := make([]int, len(sh.members))
			for k, m := range sh.members {
				ids[k] = p.Nodes[m].ID()
			}
			partIDs[i] = ids
		}
		p.Churn.InitParts(partIDs)
	}
	p.built = true
	return nil
}

// TickTime returns the virtual time of sampling round k, counting from
// 1: k sample periods, so the first round falls one period in, like the
// paper's 1 Hz sampling.
func TickTime(period float64, k int) float64 { return float64(k) * period }

// Ticks returns how many sampling rounds a run to the horizon makes:
// every round k ≥ 1 whose TickTime is no later than the horizon. Run,
// the experiment's pre-sizing and every caller that drives Tick itself
// count and time rounds through Ticks and TickTime, so they agree on
// every period and horizon.
func Ticks(period, horizon float64) int {
	q := horizon / period
	if !(q >= 1) {
		return 0 // NaN, or no round within the horizon
	}
	n := int(q)
	for n > 0 && TickTime(period, n) > horizon {
		n--
	}
	for TickTime(period, n+1) <= horizon {
		n++
	}
	return n
}

// Run ticks the pipeline through every sampling round up to the horizon
// and closes it, so every tick has reached the observers when it
// returns. It returns a wiring error, before the first tick.
func (p *Pipeline) Run(horizon float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	defer p.Close()
	for k := range Ticks(p.SamplePeriod, horizon) {
		if err := p.Tick(TickTime(p.SamplePeriod, k+1)); err != nil {
			return err
		}
	}
	return nil
}

// Close waits until the lane stages have finished every published tick,
// stops their goroutines and releases the shard pool. Safe to call
// repeatedly and on a pipeline that never ticked; a later Tick starts
// the goroutines again. A caller that ticks a concurrent pipeline
// itself must Close it before it reads a broker or an observer's sink.
func (p *Pipeline) Close() {
	p.stopLanes()
	if p.pool != nil {
		p.pool.close()
		p.pool = nil
	}
}

// ErrClock classifies a Tick whose time is not finite or is earlier
// than the previous tick's: virtual time only moves forward (equal
// times are legal). It is the monotone-clock invariant, checked once
// per tick as input validation.
var ErrClock = errors.New("engine: monotone-clock")

// Tick processes one sampling round. The world stage runs the shard
// jobs — inline, or on the shard pool in the region partition — folds
// the shards' observability batches in shard order and hands the tick's
// frame to the lane stages: inline lanes run before Tick returns,
// concurrent lanes trail it. While observability is enabled the world
// stage's boundaries are published as trace spans, each lane's tallies
// are flushed into the global registry and every lane stage adds its
// estimator refreshes. The first Tick builds the shards and returns a
// wiring error the build finds. A time that is not finite or is earlier
// than the previous tick's is rejected with ErrClock, before any stage
// runs.
func (p *Pipeline) Tick(now float64) error {
	if !p.built {
		if err := p.build(); err != nil {
			return err
		}
	}
	if math.IsNaN(now) || math.IsInf(now, 0) || (p.tick > 0 && now < p.now) {
		return fmt.Errorf("%w: tick at %v after %v", ErrClock, now, p.now)
	}
	p.startLanes()
	p.obsOn = obs.Enabled()
	t0 := obs.StageStart()
	p.tick++
	p.now = now
	f := p.ring.acquire()
	f.now, f.obs = now, p.obsOn
	for _, sh := range p.shards {
		sh.out = &f.shards[sh.idx]
	}
	p.runJobs()
	t1 := obs.StageClock(t0)
	p.fold()
	t2 := obs.StageClock(t0)
	p.publish(f)
	obs.RecordTickSpans(p.tid, t0, t1, t2, obs.StageClock(t0))
	return nil
}

// runJobs runs the world stage's shard jobs, inline in shard order when
// Workers <= 1, otherwise on the persistent worker pool. Either way each
// job computes exactly the same thing — the pool only changes which
// thread runs it.
func (p *Pipeline) runJobs() {
	if p.Workers > 1 && p.pool == nil {
		p.pool = newShardPool(p.Workers, p.runJob)
	}
	if p.pool != nil {
		p.pool.dispatch(p.jobs)
		return
	}
	for _, j := range p.jobs {
		p.runJob(j)
	}
}

// runJob runs one shard job of the world stage.
func (p *Pipeline) runJob(j int) { p.runShard(p.shards[j]) }

// runShard executes one shard's world-stage chain over its members in
// ascending index order: it advances every member one sample period
// (movement continues while a node is absent from the grid — people
// keep walking after closing their laptop), runs churn and collects
// every present member's sample through its gateway, then lets each
// lane's filter sweep the members. Everything it writes is shard-local,
// keyed by an owned node or the shard's part of the frame;
// TestShardDigestGate under -race holds it (and future edits) to that.
func (p *Pipeline) runShard(sh *shardCtx) {
	sh.startNS = obs.StageStart()
	out := sh.out
	for k, i := range sh.members {
		out.pos[k] = p.Nodes[i].Advance(p.SamplePeriod)
	}
	sh.advancedNS = obs.StageClock(sh.startNS)
	out.departed = out.departed[:0]
	if p.Churn != nil {
		p.Churn.ProcessPart(sh.idx, p.tick, sh) // event timeline; buckets recycle through a free list
	}
	for k := range sh.members {
		id := int(sh.ids[k])
		if p.Churn != nil && p.Churn.Absent(id) {
			out.state[k] = absent
			continue
		}
		var connected bool
		sh.lus[k], connected = sh.regions[sh.slot[k]].gw.Collect(filter.LU{Node: id, Time: p.now, Pos: out.pos[k]})
		out.state[k] = lost
		if connected {
			out.state[k] = reached
		}
	}
	for l := range sh.lanes {
		p.sweepLane(sh, l)
	}
	sh.endNS = obs.StageClock(sh.startNS)
}

// sweepLane offers every reached member's sample to lane l's filter in
// the shard and records the verdicts: the lane's tallies and its
// transmit bits in the frame.
func (p *Pipeline) sweepLane(sh *shardCtx, l int) {
	ln := &sh.lanes[l]
	out := sh.out
	sent := out.sent[l]
	clear(sent)
	for k := range sh.members {
		if out.state[k] != reached {
			continue
		}
		d := ln.filt.Offer(sh.lus[k])
		ln.local.Offered++
		filter.Observe(d, &ln.local, p.obsOn)
		r := sh.slot[k]
		ln.offered[r]++
		if d.Transmit {
			ln.sent[r]++
			ln.local.BrokerReceived++
			sent[k>>6] |= 1 << (k & 63)
		}
	}
}

// fold is the world stage's synchronous merge after the barrier: for
// every shard in shard order it folds each lane's observability batch
// into the lane's master batch and publishes the shard's region
// counters and spans, then flushes the masters while observability is
// enabled. No step here depends on worker scheduling, so the merged
// state is identical at every worker count.
func (p *Pipeline) fold() {
	for _, sh := range p.shards {
		for l := range sh.lanes {
			p.masters[l].Merge(&sh.lanes[l].local)
		}
		if p.obsOn {
			sh.flushObs(p.tid)
		}
	}
	if p.obsOn {
		for l := range p.masters {
			p.masters[l].Flush()
		}
	}
}

// flushObs publishes every lane's region counters, the shard's advance
// span and, for a region shard, its shard span. Called once per tick in
// shard order, only while observability is enabled.
func (sh *shardCtx) flushObs(tid uint32) {
	for l := range sh.lanes {
		ln := &sh.lanes[l]
		for r := range sh.regions {
			rg := &sh.regions[r]
			if ln.offered[r] > 0 {
				rg.offeredC.Add(ln.offered[r])
				ln.offered[r] = 0
			}
			if ln.sent[r] > 0 {
				rg.sentC.Add(ln.sent[r])
				ln.sent[r] = 0
			}
		}
	}
	obs.RecordShardSpan(tid, sh.idx, sh.shardH, sh.startNS, sh.advancedNS, sh.endNS)
}

// ShardFilters returns each shard's filters, one per lane in lane
// order, with the shards in shard order (empty before the first tick
// builds the shards), so callers can fold per-shard filter summaries —
// e.g. total ADF cluster counts — after a run. The filters belong to
// the world stage, so they are quiescent whenever Tick has returned.
func (p *Pipeline) ShardFilters() [][]filter.Filter {
	out := make([][]filter.Filter, len(p.shards))
	for i, sh := range p.shards {
		out[i] = make([]filter.Filter, len(sh.lanes))
		for l := range sh.lanes {
			out[i][l] = sh.lanes[l].filt
		}
	}
	return out
}

// shardPool is the world stage's one worker pool: goroutines are
// started once and fed shard indices through a channel, so a
// steady-state tick dispatches with no allocation.
type shardPool struct {
	work chan int
	wg   sync.WaitGroup
	run  func(job int)
}

// newShardPool starts the pool's worker goroutines. Shard jobs mutate
// only shard-local state and their own part of the frame, and every
// cross-shard effect is applied in stable shard order, so results are
// bit-for-bit identical to the inline run.
func newShardPool(workers int, run func(job int)) *shardPool {
	p := &shardPool{work: make(chan int), run: run}
	for w := 0; w < workers; w++ {
		go func() {
			for j := range p.work {
				p.run(j)
				p.wg.Done()
			}
		}()
	}
	return p
}

// dispatch feeds every job to the pool and blocks until all complete.
func (p *shardPool) dispatch(jobs []int) {
	p.wg.Add(len(jobs))
	for _, j := range jobs {
		p.work <- j
	}
	p.wg.Wait()
}

func (p *shardPool) close() { close(p.work) }
