package engine

import (
	"fmt"
	"sort"
	"sync"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/campus"
	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/node"
	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/sim"
)

// Pipeline is the whole-tick simulation pipeline: mobility advance →
// churn → gateway collect → filter → broker delivery → error
// measurement. One pipeline is one world — population, gateways, churn —
// simulated once per tick, and one or more lanes, each a filter
// configuration with its own brokers and observer, that decide on the
// world's samples side by side. A one-filter run is one lane. The
// per-node stages run over a partition of the population into shards,
// and a deterministic merge folds the shards' effects back. Workers
// selects the partition:
//
//   - 0, the campus partition: one shard owns every node and every
//     region's gateway, and each lane's one filter instance sees the
//     whole campus — the paper's reading, in which the ADF clusters all
//     nodes together. The shard visits nodes in slice order.
//   - N ≥ 1, the region partition: one shard per campus region, each
//     with its own gateway and its own filter instance per lane, so a
//     clustering filter like the ADF clusters per region. The shards run
//     on N workers (1 runs them inline, the sequential reference).
//     Per-node filters (GeneralDF, IdealLU) behave identically in both
//     partitions.
//
// A shard job advances its members, drains its churn partition (a
// departure is forgotten in every lane) and collects every present
// member's sample through its gateway once, into a per-shard buffer.
// Then each lane in turn sweeps the shard's members: filter decision,
// broker pair, buffered observer events. Lanes never read each other's
// state, so each lane computes exactly what a pipeline of its own would.
//
// A shard's stage chain touches only shard-local state: its members'
// mobility (each node draws only from its private stream), its gateways
// (whose draws are keyed by node and time), its filter instances, its
// churn timeline partition, and the broker records of the nodes it owns
// (shard-safe after Preallocate, because the dense.Slab does no shared
// bookkeeping). Cross-shard effects are buffered per shard and applied
// in shard order (ascending region ID), never in completion order:
// broker tallies and observability batches by the synchronous fold at
// the end of the tick, observer events by the replay job of the next
// tick. Results are therefore bit-for-bit identical at every worker
// count: Workers only changes which OS thread runs a job, never what
// the job computes or the order the effects are applied in.
//
// Each tick is one job list with one barrier: a job per shard, plus the
// replay job, which feeds the previous tick's buffered events to the
// lanes' observers while the shards compute. So when Tick(t) returns,
// the observers have seen tick t−1, not tick t; Close (which Run calls)
// replays the last tick. The simulation never reads an observer, so
// the lag changes no result.
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
	// filters of different calls never do.
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
	// the region partition on a pool of N workers (1 runs the job list
	// inline).
	Workers int

	built bool
	// samples holds the current tick's samples, written by the shard
	// jobs; prev holds the previous tick's, read by the replay job.
	samples, prev []Sample
	shards        []*shardCtx
	// jobs is the tick's job list: jobReplay, then every shard index.
	jobs []int
	pool *shardPool
	san  sanitizerState

	// now is the tick being computed; prevNow the tick awaiting replay
	// while pending is set.
	now, prevNow float64
	pending      bool
	// err is the first observer error. It is sticky: once set, no
	// observer receives another event and Tick and Close return it.
	err error
	// replayStart/replayEnd are the replay job's span endpoints.
	replayStart, replayEnd int64

	obsOn bool
	tid   uint32
	// masters are the lanes' per-tick observability batches, each
	// flushed like a pipeline of its own.
	masters []obs.TickLocal
	// tick counts processed sampling rounds; it keys the churn timeline.
	tick uint64
}

// Lane is one filter configuration on a pipeline's world: the two
// broker variants run in lockstep on the lane's filter verdicts, and the
// observer that receives the lane's events.
type Lane struct {
	// NoLE and WithLE are the broker without and with a Location
	// Estimator, shared across shards: the location DB is the wired-grid
	// side and stays global. Their dense windows are Preallocate-d at
	// build so concurrent shard steps on disjoint node sets are
	// race-free.
	NoLE, WithLE *broker.Broker
	// Observer receives the lane's events, one tick late, from the
	// replay job in shard order (it is never called concurrently). Nil
	// means no sink: build substitutes BaseObserver{}.
	Observer
}

// jobReplay is the replay job's entry in the job list; the shard jobs
// follow it as their shard indices 0, 1, ….
const jobReplay = -1

// shardCtx is one shard's private state: everything its stage chain
// touches without synchronisation, plus the buffered cross-shard
// effects the fold and the replay job apply.
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
	// collected[k] is member k's gateway verdict this tick, shared by
	// every lane.
	collected []collected
	// lanes holds the shard's per-lane state, in lane order.
	lanes []shardLane
	// shardH is the region shard's own latency series; nil in the
	// campus partition, whose shard span is the whole nodes stage.
	shardH *obs.Histogram
	// startNS/advancedNS/endNS are the shard job's span endpoints (the
	// advance stage ends at advancedNS), read inside the job and
	// recorded sequentially at the fold.
	startNS, advancedNS, endNS int64
}

// shardRegion is one home region inside a shard: its gateway plus the
// region's labeled LU counters.
type shardRegion struct {
	gw              gateway.Collector
	offeredC, sentC *obs.Counter
}

// collected is one member's gateway verdict for the tick.
type collected struct {
	// lu is the sample as the gateway forwarded it (valid when state is
	// reached).
	lu    filter.LU
	state uint8
}

// Member states after the shard's churn and collect stages.
const (
	// absent: the member is off the grid; no lane sees it this tick.
	absent uint8 = iota
	// lost: the gateway dropped the sample; the brokers still step.
	lost
	// reached: the sample reached the lanes' filters.
	reached
)

// shardLane is one lane's private state inside a shard.
type shardLane struct {
	filt filter.Filter
	// outcomes buffers this tick's per-node results, prev the previous
	// tick's, which the replay job feeds to the lane's observer. The two
	// swap every tick; capacity settles at the member count.
	outcomes, prev []outcome
	// local batches the lane's counter/histogram tallies; merged into
	// the lane's master batch in shard order.
	local obs.TickLocal
	// noLE/withLE collect the lane's broker attributions, folded back
	// via Broker.AddTally in shard order.
	noLE, withLE broker.Tally
	// noLEB/withLEB are the lane's shared brokers, held here so the
	// shard can forget departing members itself (record deletes are
	// shard-safe after Preallocate; the forget counter is atomic).
	noLEB, withLEB *broker.Broker
	// offered/sent are the lane's per-region LU tallies, indexed like
	// the shard's regions, accumulated between flushes.
	offered, sent []uint64
}

// ChurnEvent implements ChurnSink for the shard's own churn partition.
// Every lane tallies the event in its shard-local batch (merged in
// shard order), as its own run would, and a departure forgets the node
// from every lane's filter and brokers — all shard-safe, since the
// shard only ever reports owned nodes.
func (sh *shardCtx) ChurnEvent(id int, left bool) {
	for l := range sh.lanes {
		ln := &sh.lanes[l]
		if !left {
			ln.local.ChurnRejoined++
			continue
		}
		ln.local.ChurnLeft++
		ln.filt.Forget(id)
		ln.noLEB.Forget(id)
		ln.withLEB.Forget(id)
	}
}

// outcome is one node's buffered tick result: which observer events to
// replay and the believed-vs-true distances measured in the shard.
type outcome struct {
	idx   int32
	flags uint8
	// distNoLE/distWithLE are the broker error distances (valid when the
	// corresponding flag is set).
	distNoLE, distWithLE float64
}

const (
	ocOffered uint8 = 1 << iota
	ocTransmitted
	ocNoLE
	ocWithLE
)

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
		if ln.NoLE == nil || ln.WithLE == nil {
			return fmt.Errorf("engine: lane %d needs both broker variants", l)
		}
	}
	return nil
}

// build resolves the partition: the home regions in ascending ID order,
// grouped into one campus shard or one shard per region, each shard
// with its gateways, one filter per lane and its member list. It also
// pre-sizes the brokers' dense windows and the reusable tick buffers.
func (p *Pipeline) build() error {
	if err := p.Validate(); err != nil {
		return err
	}
	seen := make(map[campus.RegionID]bool)
	var ids []campus.RegionID
	for _, n := range p.Nodes {
		if id := n.Region().ID; !seen[id] {
			seen[id] = true
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
				noLEB:   p.Lanes[l].NoLE,
				withLEB: p.Lanes[l].WithLE,
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
		maxID = max(maxID, n.ID())
	}
	for _, sh := range p.shards {
		sh.collected = make([]collected, len(sh.members))
		if p.Workers > 0 {
			obs.ShardNodes(sh.name).Set(int64(len(sh.members)))
		}
	}
	p.masters = make([]obs.TickLocal, len(p.Lanes))
	for l := range p.Lanes {
		ln := &p.Lanes[l]
		ln.NoLE.Preallocate(maxID + 1)
		ln.WithLE.Preallocate(maxID + 1)
		if ln.Observer == nil {
			ln.Observer = BaseObserver{}
		}
		p.masters[l].Init()
	}
	p.samples = make([]Sample, len(p.Nodes))
	p.prev = make([]Sample, len(p.Nodes))
	p.jobs = make([]int, len(p.shards)+1)
	for i := range p.jobs {
		p.jobs[i] = jobReplay + i
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

// Run schedules the pipeline on s at every sample period (first tick at
// one period, like the paper's 1 Hz sampling), executes until the
// horizon and closes the pipeline, so every tick has reached the
// observer when it returns. It surfaces the first stage or observer
// error.
func (p *Pipeline) Run(s *sim.Simulator, horizon float64) (err error) {
	if err := p.Validate(); err != nil {
		return err
	}
	defer func() {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := s.EveryErr(p.SamplePeriod, p.SamplePeriod, p.Tick); err != nil {
		return err
	}
	return s.RunUntil(horizon)
}

// Close replays the last ticked round to the observers, if one is
// pending, and releases the worker pool. It returns the first observer
// error of the run. Safe to call repeatedly and on a pipeline that never
// ticked; a later Tick restarts the pool. A caller that ticks the
// pipeline itself must Close it before reading an observer's sink.
func (p *Pipeline) Close() error {
	if p.pending && p.err == nil {
		p.replay()
	}
	p.pending = false
	if p.pool != nil {
		p.pool.close()
		p.pool = nil
	}
	return p.err
}

// Tick processes one sampling round as one job list: every shard job
// advances and processes its members while the replay job feeds the
// previous round to the observers. After the barrier the fold applies
// the shards' broker tallies and observability batches in shard order.
// While observability is enabled the stage boundaries are published as
// trace spans and each lane's tallies flush into the global registry.
// Tick returns the first observer error, raised by this tick's replay
// or an earlier one.
func (p *Pipeline) Tick(now float64) error {
	if p.err != nil {
		return p.err
	}
	if !p.built {
		if err := p.build(); err != nil {
			return err
		}
	}
	p.obsOn = obs.Enabled()
	t0 := obs.StageStart()
	p.san.checkClock(p.Nodes, now)
	p.tick++
	p.now = now
	jobs := p.jobs
	if !p.pending {
		jobs = jobs[1:]
	}
	p.replayStart, p.replayEnd = 0, 0
	p.runJobs(jobs)
	t1 := obs.StageClock(t0)
	// This round becomes the pending one: its buffers swap into the
	// replay side, and the replayed buffers are reused next tick.
	p.pending, p.prevNow = true, now
	p.samples, p.prev = p.prev, p.samples
	for _, sh := range p.shards {
		for l := range sh.lanes {
			ln := &sh.lanes[l]
			ln.outcomes, ln.prev = ln.prev, ln.outcomes
		}
	}
	p.fold()
	t2 := obs.StageClock(t0)
	obs.RecordTickSpans(p.tid, t0, t1, t2, p.replayStart, p.replayEnd)
	if p.obsOn {
		for l := range p.masters {
			p.masters[l].Flush()
		}
	}
	return p.err
}

// runJobs runs the job list, inline in list order when Workers <= 1,
// otherwise on the persistent worker pool. Either way each job computes
// exactly the same thing — the pool only changes which thread runs it.
func (p *Pipeline) runJobs(jobs []int) {
	if p.Workers > 1 && p.pool == nil {
		p.pool = newShardPool(p.Workers, p.runJob)
	}
	if p.pool != nil {
		p.pool.dispatch(jobs)
		return
	}
	for _, j := range jobs {
		p.runJob(j)
	}
}

// runJob runs one entry of the job list.
func (p *Pipeline) runJob(j int) {
	if j == jobReplay {
		p.replay()
		return
	}
	p.runShard(p.shards[j])
}

// runShard executes one shard's per-node stage chain over its members
// in ascending index order: it advances every member one sample period
// (movement continues while a node is absent from the grid — people
// keep walking after closing their laptop), runs churn and collects
// every present member's sample through its gateway, then lets each
// lane sweep the members. Everything it writes is shard-local or keyed
// by an owned node; the shardstage lint rule holds it (and future edits)
// to that.
//
//adf:hotpath
//adf:shardstage
func (p *Pipeline) runShard(sh *shardCtx) {
	sh.startNS = obs.StageStart()
	for _, i := range sh.members {
		n := p.Nodes[i]
		s := &p.samples[i]
		*s = Sample{Node: n.ID(), Region: n.Region(), Time: p.now, Pos: n.Advance(p.SamplePeriod)}
		p.san.checkSample(s)
	}
	sh.advancedNS = obs.StageClock(sh.startNS)
	if p.Churn != nil {
		p.Churn.ProcessPart(sh.idx, p.tick, sh) //adf:allow hotpath — event timeline; buckets recycle through a free list
	}
	for k, i := range sh.members {
		s := &p.samples[i]
		c := &sh.collected[k]
		if p.Churn != nil && p.Churn.Absent(s.Node) {
			c.state = absent
			continue
		}
		var connected bool
		c.lu, connected = sh.regions[sh.slot[k]].gw.Collect(filter.LU{Node: s.Node, Time: s.Time, Pos: s.Pos})
		c.state = lost
		if connected {
			c.state = reached
		}
	}
	for l := range sh.lanes {
		p.sweepLane(sh, &sh.lanes[l])
	}
	sh.endNS = obs.StageClock(sh.startNS)
}

// sweepLane runs one lane over the shard's collected samples: filter,
// broker delivery, and the buffered observer events and error
// distances for the next tick's replay.
//
//adf:hotpath
//adf:shardstage
func (p *Pipeline) sweepLane(sh *shardCtx, ln *shardLane) {
	ln.outcomes = ln.outcomes[:0]
	for k, i := range sh.members {
		c := &sh.collected[k]
		if c.state == absent {
			continue
		}
		s := &p.samples[i]
		o := outcome{idx: int32(i)}
		transmitted := false
		if c.state == reached {
			o.flags |= ocOffered
			d := ln.filt.Offer(c.lu)
			ln.local.Offered++
			filter.Observe(d, &ln.local, p.obsOn)
			ln.offered[sh.slot[k]]++
			if d.Transmit {
				ln.sent[sh.slot[k]]++
				transmitted = true
			}
		}
		if transmitted {
			o.flags |= ocTransmitted
			ln.local.BrokerReceived++
		}
		// A transmitted sample is the brokers' belief (a received LU is
		// stored as reported), and for a finite position x−x is +0 and
		// Hypot(+0, +0) is +0: its error distances keep outcome's zero
		// value and skip both Dist calls.
		if e, ok := ln.noLEB.StepTally(s.Node, s.Time, s.Pos, transmitted, &ln.noLE); ok {
			o.flags |= ocNoLE
			if !transmitted {
				o.distNoLE = e.Pos.Dist(s.Pos)
			}
		}
		if e, ok := ln.withLEB.StepTally(s.Node, s.Time, s.Pos, transmitted, &ln.withLE); ok {
			o.flags |= ocWithLE
			if !transmitted {
				o.distWithLE = e.Pos.Dist(s.Pos)
			}
			if e.Estimated {
				ln.local.BrokerEstimated++
			}
		}
		ln.outcomes = append(ln.outcomes, o) //adf:allow hotpath — reused buffer; capacity settles at the member count
	}
}

// replay is the replay job: it feeds the pending round's buffered
// outcomes to the lanes' observers — lane by lane, and within a lane
// shard by shard in shard order, per node offered, transmitted, then
// the no-LE and with-LE errors, then the lane's OnTick for that round.
// Each observer thus sees exactly the stream a pipeline of its own lane
// would emit. It is the only caller of the observers, so it is never
// called concurrently, and it reads only the previous round's buffers,
// which no shard job writes. It runs concurrently with the shard jobs,
// so the shardsafe rule holds it to the same isolation. The first
// observer error stops the replay and is kept.
//
//adf:hotpath
//adf:shardstage
func (p *Pipeline) replay() {
	p.replayStart = obs.StageStart()
	p.err = p.replayEvents()
	p.replayEnd = obs.StageClock(p.replayStart)
}

// replayEvents emits the pending round's events and OnTick, lane by
// lane.
func (p *Pipeline) replayEvents() error {
	for l := range p.Lanes {
		if err := p.replayLane(l); err != nil {
			return err
		}
	}
	return nil
}

// replayLane emits one lane's events of the pending round and its
// OnTick.
func (p *Pipeline) replayLane(l int) error {
	ob := p.Lanes[l].Observer
	for _, sh := range p.shards {
		prev := sh.lanes[l].prev
		for k := range prev {
			o := &prev[k]
			s := p.prev[o.idx]
			if o.flags&ocOffered != 0 {
				if err := ob.OnOffered(s); err != nil {
					return err
				}
			}
			if o.flags&ocTransmitted != 0 {
				if err := ob.OnTransmitted(s); err != nil {
					return err
				}
			}
			if o.flags&ocNoLE != 0 {
				if err := ob.OnError(s, NoLE, o.distNoLE); err != nil {
					return err
				}
			}
			if o.flags&ocWithLE != 0 {
				if err := ob.OnError(s, WithLE, o.distWithLE); err != nil {
					return err
				}
			}
		}
	}
	return ob.OnTick(p.prevNow)
}

// fold is the synchronous merge after the barrier: for every shard in
// shard order it folds each lane's broker tallies and observability
// batch. No step here depends on worker scheduling, so the merged state
// is identical at every worker count.
func (p *Pipeline) fold() {
	for _, sh := range p.shards {
		for l := range sh.lanes {
			ln := &sh.lanes[l]
			p.Lanes[l].NoLE.AddTally(&ln.noLE)
			p.Lanes[l].WithLE.AddTally(&ln.withLE)
			p.masters[l].Merge(&ln.local)
		}
		if p.obsOn {
			sh.flushObs(p.tid)
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
// e.g. total ADF cluster counts — after a run.
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

// shardPool is the pipeline's one worker pool: goroutines are started
// once and fed job-list entries through a channel, so a steady-state
// tick dispatches with no allocation.
type shardPool struct {
	work chan int
	wg   sync.WaitGroup
	run  func(job int)
}

// newShardPool starts the pool's worker goroutines. Shard jobs mutate
// only shard-local state (plus disjoint broker records behind
// Preallocate) and the replay job only the observer; every cross-shard
// effect is applied in stable shard order, so results are bit-for-bit
// identical to the inline run.
//
//adf:owns queue:work — the workers launched here are the work channel's only receivers
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
