package engine

import (
	"sync"
	"sync/atomic"

	"github.com/mobilegrid/adf/internal/broker"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/obs"
)

// frame is one tick handed from the world stage to the lane stages:
// everything a lane stage reads of the world's tick. The world stage
// fills it while it holds it, and no lane writes it.
type frame struct {
	now  float64
	tick uint64
	// obs is whether observability was enabled for the tick.
	obs bool
	// shards holds the tick per shard, in shard order.
	shards []frameShard
	// pending counts the lane stages that have not finished the frame;
	// the last one returns it to the ring.
	pending atomic.Int32
}

// frameShard is one shard's part of a frame, indexed like the shard's
// members.
type frameShard struct {
	// pos[k] is member k's true position.
	pos []geo.Point
	// state[k] is member k's state: absent, lost or reached.
	state []uint8
	// sent[l] holds lane l's transmit bits: bit k is set when the
	// lane's filter transmitted member k's sample.
	sent [][]uint64
	// departed lists the IDs of the members that left the grid this
	// tick; capacity settles at the shard's largest tick of departures.
	departed []int32
}

// ringBudget is the byte budget of a concurrent pipeline's tick frames.
// The ring holds as many frames as fit, at least two — the world stage
// fills one while the lanes read another — and at most maxRingFrames:
// the paper's 140 nodes get 64 frames of about 2.5 KiB, 20k nodes a
// dozen and 100k nodes two frames of 1.7 MiB.
const (
	ringBudget    = 4 << 20
	maxRingFrames = 64
)

// ringFrames returns the frame count K for a population and lane count.
func ringFrames(nodes, lanes int) int {
	per := nodes*(16+1) + lanes*(nodes/8+8)
	return min(max(ringBudget/max(per, 1), 2), maxRingFrames)
}

// ring is the tick-frame ring: the frames the world stage may fill
// (idle), the channel the lane stages return finished frames on (free)
// and the state the lane goroutines share with the world stage.
type ring struct {
	// frames are the frames allocated so far; cap(frames) is K.
	frames []*frame
	// idle are the frames no lane holds and free has handed back; the
	// world stage fills them first.
	idle []*frame
	free chan *frame
	// failAt is the earliest tick a lane stage's observer failed on, 0
	// while none has. Lane stages skip every later tick.
	failAt atomic.Uint64
	// running counts the running lane goroutines.
	running sync.WaitGroup
	// shards and lanes shape the frames.
	shards []*shardCtx
	lanes  int
}

// newRing returns a ring of k frames for the shards' members and
// lanes. It allocates the frames one per tick, the first k ticks, so a
// short pass pays only for the frames it reaches and no tick past the
// k-th allocates.
func newRing(k int, shards []*shardCtx, lanes int) *ring {
	// free holds at most the k frames, so a lane never blocks returning
	// one.
	return &ring{
		frames: make([]*frame, 0, k),
		idle:   make([]*frame, 0, k),
		free:   make(chan *frame, k),
		shards: shards,
		lanes:  lanes,
	}
}

// newFrame allocates a frame for the ring's shards and lanes.
func (r *ring) newFrame() *frame {
	f := &frame{shards: make([]frameShard, len(r.shards))}
	for i, sh := range r.shards {
		n := len(sh.members)
		fs := &f.shards[i]
		fs.pos = make([]geo.Point, n)
		fs.state = make([]uint8, n)
		fs.sent = make([][]uint64, r.lanes)
		for l := range fs.sent {
			fs.sent[l] = make([]uint64, (n+63)/64)
		}
	}
	return f
}

// acquire returns a frame for the world stage to fill, waiting while
// every frame is held by a lane stage (the ring is full).
func (r *ring) acquire() *frame {
	if len(r.frames) < cap(r.frames) {
		f := r.newFrame()
		r.frames = append(r.frames, f)
		r.idle = append(r.idle, f)
	}
	if n := len(r.idle); n > 0 {
		f := r.idle[n-1]
		r.idle = r.idle[:n-1]
		return f
	}
	if len(r.free) == 0 {
		obs.WorldWaits.Inc()
	}
	return <-r.free
}

// drain waits until the lane stages have returned every frame.
func (r *ring) drain() {
	for len(r.idle) < len(r.frames) {
		r.idle = append(r.idle, <-r.free)
	}
}

// laneStage is one lane's stage: the lane's brokers, observer and
// estimator-refresh tally, and, while it runs concurrently, the queue of
// published frames it has yet to read.
type laneStage struct {
	idx          int
	noLE, withLE *broker.Broker
	ob           Observer
	// in carries the published frames, in tick order, to the stage's
	// goroutine; a fresh queue is made each time the goroutine starts.
	in chan *frame
	// estimated counts the with-LE refreshes served by the Location
	// Estimator since the lane last added them to the registry.
	estimated uint64
	// tid is the lane's trace track.
	tid uint32
	// jit delays the stage at random points when a determinism test has
	// set SetStageJitter; nil otherwise.
	jit *jitter
	// err is the lane's first observer error and errTick its tick.
	err     error
	errTick uint64
}

// publish hands the world stage's filled frame to the lane stages: on
// a sequential pipeline it runs them inline, in lane order, and
// recycles the frame; on a concurrent one it queues the frame for each
// lane's goroutine.
func (p *Pipeline) publish(f *frame) {
	if !p.lanesRunning {
		for l := range p.stages {
			p.laneTick(&p.stages[l], f)
		}
		p.ring.idle = append(p.ring.idle, f)
		return
	}
	f.pending.Store(int32(len(p.stages)))
	for l := range p.stages {
		p.stages[l].in <- f
	}
}

// startLanes starts one goroutine per lane stage on a concurrent
// pipeline whose lanes are not running yet. A goroutine reads its
// lane's frames in tick order and the last lane to finish a frame
// returns it to the ring; closing the queue ends it.
//
//adf:owns queue:in — each lane stage's goroutine is its queue's only receiver
func (p *Pipeline) startLanes() {
	if !p.Concurrent || p.lanesRunning {
		return
	}
	p.lanesRunning = true
	seed := stageJitter.Load()
	for l := range p.stages {
		st := &p.stages[l]
		// At most every frame is published and unread, so publish never
		// blocks on a lane's queue; only acquire waits for a full ring.
		st.in = make(chan *frame, cap(p.ring.frames))
		st.jit = newJitter(seed, l)
		p.ring.running.Add(1)
		go func() {
			defer p.ring.running.Done()
			for {
				if len(st.in) == 0 {
					obs.LaneWaits.Inc()
				}
				f, ok := <-st.in
				if !ok {
					return
				}
				p.laneTick(st, f)
				if f.pending.Add(-1) == 0 {
					p.ring.free <- f
				}
			}
		}()
	}
}

// settle waits until the lane stages have finished every published
// frame; their goroutines keep running.
func (p *Pipeline) settle() {
	if p.lanesRunning {
		p.ring.drain()
	}
}

// stopLanes waits until the lane stages have finished every published
// frame, then ends their goroutines. A no-op when none run.
func (p *Pipeline) stopLanes() {
	if !p.lanesRunning {
		return
	}
	p.ring.drain()
	for l := range p.stages {
		close(p.stages[l].in)
	}
	p.ring.running.Wait()
	p.lanesRunning = false
}

// laneTick runs lane stage st on frame f, unless an observer has
// already failed on an earlier tick, and adds the lane's estimator
// refreshes to the registry while observability is enabled.
func (p *Pipeline) laneTick(st *laneStage, f *frame) {
	if at := p.ring.failAt.Load(); at != 0 && f.tick > at {
		return
	}
	var start int64
	if f.obs {
		start = obs.StageStart()
	}
	// The refreshes come back as a count rather than a per-step write to
	// st: the lane stages sit side by side in one slice, and per-step
	// writes there would share cache lines between lanes.
	estimated, err := p.laneEvents(st, f)
	st.estimated += estimated
	if err != nil {
		st.err, st.errTick = err, f.tick
		p.markFailed(f.tick)
	}
	if f.obs {
		obs.BrokerEstimated.Add(st.estimated)
		st.estimated = 0
		obs.RecordLaneSpan(st.tid, start, obs.StageClock(start))
	}
}

// laneEvents is one lane's tick: shard by shard in shard order it
// forgets the shard's departures from both brokers, then per present
// member steps the broker pair on the lane's transmit bit and calls the
// observer — offered, transmitted, then the no-LE and with-LE errors —
// and finally the observer's OnTick. It returns the with-LE refreshes
// the estimator served. Each observer thus sees exactly the stream a
// pipeline of its own lane would emit. It reads only the frame and the
// shards' immutable layout (member IDs, region slots, home regions), and
// writes only the lane's own state, so it runs concurrently with the
// world stage and the other lanes; the shardsafe rule holds it to that.
// The first observer error ends the tick.
//
//adf:hotpath
//adf:shardstage
func (p *Pipeline) laneEvents(st *laneStage, f *frame) (estimated uint64, err error) {
	ob := st.ob
	st.jit.pause()
	for s, sh := range p.shards {
		fs := &f.shards[s]
		for _, id := range fs.departed {
			st.noLE.Forget(int(id))
			st.withLE.Forget(int(id))
		}
		sent := fs.sent[st.idx]
		for k, id := range sh.ids {
			state := fs.state[k]
			if state == absent {
				continue
			}
			smp := Sample{Node: int(id), Region: sh.regions[sh.slot[k]].home, Time: f.now, Pos: fs.pos[k]}
			transmitted := sent[k>>6]&(1<<(k&63)) != 0
			if state == reached {
				if err := ob.OnOffered(smp); err != nil {
					return estimated, err
				}
			}
			if transmitted {
				if err := ob.OnTransmitted(smp); err != nil {
					return estimated, err
				}
			}
			// A transmitted sample is the brokers' belief (a received LU
			// is stored as reported), and for a finite position x−x is +0
			// and Hypot(+0, +0) is +0: its error distances are +0 and
			// skip both Dist calls.
			if e, ok := st.noLE.Step(smp.Node, smp.Time, smp.Pos, transmitted); ok {
				var dist float64
				if !transmitted {
					dist = e.Pos.Dist(smp.Pos)
				}
				if err := ob.OnError(smp, NoLE, dist); err != nil {
					return estimated, err
				}
			}
			if e, ok := st.withLE.Step(smp.Node, smp.Time, smp.Pos, transmitted); ok {
				if e.Estimated {
					estimated++
				}
				var dist float64
				if !transmitted {
					dist = e.Pos.Dist(smp.Pos)
				}
				if err := ob.OnError(smp, WithLE, dist); err != nil {
					return estimated, err
				}
			}
		}
		st.jit.pause()
	}
	return estimated, ob.OnTick(f.now)
}

// markFailed lowers failAt to tick.
func (p *Pipeline) markFailed(tick uint64) {
	for {
		at := p.ring.failAt.Load()
		if at != 0 && at <= tick {
			return
		}
		if p.ring.failAt.CompareAndSwap(at, tick) {
			return
		}
	}
}

// failure returns the run's first observer error, or nil while no lane
// has failed. Once one has, it waits for the lanes to finish every
// published tick and resolves the first error by tick, then lane order
// — the error the inline schedule stops on.
func (p *Pipeline) failure() error {
	if p.err != nil || p.ring == nil || p.ring.failAt.Load() == 0 {
		return p.err
	}
	p.settle()
	var first *laneStage
	for l := range p.stages {
		st := &p.stages[l]
		if st.err != nil && (first == nil || st.errTick < first.errTick) {
			first = st
		}
	}
	p.err = first.err
	return p.err
}
