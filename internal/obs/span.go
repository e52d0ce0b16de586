package obs

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
)

// Stage names one timed section of the engine's tick pipeline.
type Stage int

const (
	// StageAdvance is one shard's mobility advance, the first step of
	// its shard job.
	StageAdvance Stage = iota
	// StageNodes is the world stage's shard dispatch: every shard job
	// (advance, churn, collect, each lane's filter decision), up to the
	// barrier.
	StageNodes
	// StageLane is one lane stage's tick: the departures forgotten, the
	// broker stepped, the error distances measured and the lane's
	// observer called, shard by shard.
	StageLane
	// StageTick is the world stage's whole sampling round, from the
	// shard dispatch to the frame's hand-off to the lane stages.
	StageTick
	// StageShard is one region shard's job in the region partition
	// (advance, then churn-gated collect → filter → broker delivery over
	// the shard's members).
	StageShard
	// StageMerge is the world stage's synchronous fold after the
	// barrier: the shards' observability batches in stable shard order.
	StageMerge
	// numStages sizes stage-indexed arrays.
	numStages
)

// stageNames maps Stage values to their trace and metric names. Indexed
// by int rather than switched over so no exhaustiveness obligation
// spreads to callers.
var stageNames = [numStages]string{"advance", "nodes", "lane", "tick", "shard", "merge"}

// String returns the stage's name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// spanRecord is one completed span in the ring. shard identifies the
// region shard for StageShard records (-1 otherwise).
type spanRecord struct {
	stage   Stage
	tid     uint32
	shard   int32
	startNS int64
	durNS   int64
}

// traceRingCap bounds each trace ring: 1<<15 records, allocated on the
// first recording — ≈6.5k campus-partition ticks of the five pipeline
// stages (~1 MiB) in the span ring, ~2 MiB of RPC spans in the RPC ring.
const traceRingCap = 1 << 15

// traceRing is a fixed-capacity ring of completed trace records. A mutex
// (not atomics) guards it: recording happens a handful of times per
// tick or request, and the /trace endpoint reads it while simulations
// run.
type traceRing[T any] struct {
	mu sync.Mutex

	records []T
	next    int
	wrapped bool
}

// record appends recs to the ring under one lock acquisition.
func (r *traceRing[T]) record(recs []T) {
	r.mu.Lock()
	if r.records == nil {
		r.records = make([]T, traceRingCap)
	}
	for _, rec := range recs {
		r.records[r.next] = rec
		r.next++
		if r.next == len(r.records) {
			r.next = 0
			r.wrapped = true
		}
	}
	r.mu.Unlock()
}

// snapshot copies the ring's live records in recording order.
func (r *traceRing[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.records == nil {
		return nil
	}
	if !r.wrapped {
		return append([]T(nil), r.records[:r.next]...)
	}
	out := make([]T, 0, len(r.records))
	out = append(out, r.records[r.next:]...)
	return append(out, r.records[:r.next]...)
}

// count returns the number of live records (capped at the capacity).
func (r *traceRing[T]) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.records)
	}
	return r.next
}

// spans holds the pipeline's stage spans.
var spans traceRing[spanRecord]

// nextTID hands out trace thread IDs, one per pipeline, so concurrent
// campaign simulations land on separate tracks in about:tracing.
var tidCounter atomic.Uint32

// NextTID returns a fresh trace track ID.
func NextTID() uint32 { return tidCounter.Add(1) }

// StageStart returns the wall-clock start timestamp for a span, or 0
// when observability is disabled (the disabled path costs one atomic
// load — no clock read).
func StageStart() int64 {
	if !on.Load() {
		return 0
	}
	return nowNanos()
}

// StageClock reads the wall clock for the next link of a span chain
// opened with StageStart, or returns 0 when the chain's start token is
// 0 (observability was off). Unlike StageEnd it records nothing and
// re-checks no atomics — the start token is the gate — so a tick can
// read its stage boundaries at minimal cost and publish them in one
// RecordTickSpans batch.
func StageClock(start int64) int64 {
	if start == 0 {
		return 0
	}
	return nowNanos()
}

// RecordTickSpans publishes one world-stage tick's serial chain under a
// single ring lock acquisition, so the engine's per-tick path pays one
// lock/unlock pair and one atomic gate load for all of them: nodes
// [t0, t1] (the shard dispatch up to its barrier), merge [t1, t2] (the
// fold) and the enclosing tick [t0, t3], which ends once the frame is
// handed to the lane stages (inline lanes included). The chain's
// boundaries come from one StageStart and three StageClock reads; a
// zero t0 means the chain was never opened.
func RecordTickSpans(tid uint32, t0, t1, t2, t3 int64) {
	if t0 == 0 || t1 < t0 || t2 < t1 || t3 < t2 || !on.Load() {
		return
	}
	stageSeconds[StageNodes].observe(float64(t1-t0) / 1e9)
	stageSeconds[StageMerge].observe(float64(t2-t1) / 1e9)
	stageSeconds[StageTick].observe(float64(t3-t0) / 1e9)
	recs := [3]spanRecord{
		{stage: StageNodes, tid: tid, shard: -1, startNS: t0, durNS: t1 - t0},
		{stage: StageMerge, tid: tid, shard: -1, startNS: t1, durNS: t2 - t1},
		{stage: StageTick, tid: tid, shard: -1, startNS: t0, durNS: t3 - t0},
	}
	spans.record(recs[:])
}

// RecordLaneSpan records one lane stage's tick [start, end] on the
// lane's own trace track, so lanes that trail the world stage on
// goroutines of their own do not overlap its spans.
func RecordLaneSpan(tid uint32, start, end int64) {
	if start == 0 || end < start || !on.Load() {
		return
	}
	stageSeconds[StageLane].observe(float64(end-start) / 1e9)
	recs := [1]spanRecord{{stage: StageLane, tid: tid, shard: -1, startNS: start, durNS: end - start}}
	spans.record(recs[:])
}

// RecordShardSpan records one shard job's spans with explicit
// endpoints: its StageAdvance span [start, advanced] and, for a region
// shard (h non-nil), its StageShard span [start, end], fed to both the
// aggregate stage histogram and the shard's own series. Both trace
// records carry the shard index. The endpoints are read inside the
// shard job (StageStart there is race-free — it touches no shared
// state); the engine's fold calls this sequentially in shard order.
func RecordShardSpan(tid uint32, shard int, h *Histogram, start, advanced, end int64) {
	if start == 0 || advanced < start || end < advanced || !on.Load() {
		return
	}
	stageSeconds[StageAdvance].observe(float64(advanced-start) / 1e9)
	recs := [2]spanRecord{
		{stage: StageAdvance, tid: tid, shard: int32(shard), startNS: start, durNS: advanced - start},
		{stage: StageShard, tid: tid, shard: int32(shard), startNS: start, durNS: end - start},
	}
	if h == nil {
		spans.record(recs[:1])
		return
	}
	sec := float64(end-start) / 1e9
	stageSeconds[StageShard].observe(sec)
	h.observe(sec)
	spans.record(recs[:])
}

// traceEvent is one Chrome trace_event entry ("ph":"X" complete event;
// timestamps and durations in microseconds). RPC spans additionally
// carry a category and their trace identity in args.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  uint32            `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args,omitempty"`
}

// traceMeta identifies the emitting process so the cross-process merger
// (cmd/adfobs) can attribute spans and restore absolute time. EpochNS
// is a decimal string: Unix nanoseconds exceed float64's 53-bit integer
// range, and JSON numbers round-trip through float64 in most decoders.
type traceMeta struct {
	Proc    string `json:"proc"`
	Pid     int    `json:"pid"`
	EpochNS string `json:"epoch_ns"`
}

// chromeTrace is the top-level trace file: the event array plus the
// registry snapshot (about:tracing ignores unknown top-level keys, so
// one file carries both the timeline and the final metric values).
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	AdfMeta         traceMeta    `json:"adfMeta"`
	Metrics         Snapshot     `json:"metrics"`
}

// WriteChromeTrace writes the recorded spans as Chrome trace_event JSON
// (load via about:tracing or https://ui.perfetto.dev) with the Default
// registry's snapshot embedded under the "metrics" key. Traced RPC
// spans render after the pipeline stages, on per-kind tracks, with
// their trace/span/parent identity and origin stamp in args.
func WriteChromeTrace(w io.Writer) error {
	records := spans.snapshot()
	rpcs := rpcSpans.snapshot()
	events := make([]traceEvent, 0, len(records)+len(rpcs))
	for _, rec := range records {
		name := rec.stage.String()
		if rec.stage == StageShard && rec.shard >= 0 {
			name = "shard:" + strconv.Itoa(int(rec.shard))
		}
		events = append(events, traceEvent{
			Name: name,
			Ph:   "X",
			Pid:  1,
			Tid:  rec.tid,
			Ts:   sinceEpochMicros(rec.startNS),
			Dur:  float64(rec.durNS) / 1e3,
		})
	}
	for _, rec := range rpcs {
		events = append(events, traceEvent{
			Name: rec.kind.String() + ":" + rec.op.String(),
			Cat:  "rpc",
			Ph:   "X",
			Pid:  1,
			Tid:  rpcTIDBase + uint32(rec.kind),
			Ts:   sinceEpochMicros(rec.startNS),
			Dur:  float64(rec.durNS) / 1e3,
			Args: map[string]string{
				"trace":     hexID(rec.tc.TraceHi) + hexID2(rec.tc.TraceLo),
				"span":      hexID(rec.tc.SpanID),
				"parent":    hexID(rec.tc.ParentID),
				"origin_ns": strconv.FormatInt(rec.tc.OriginNS, 10),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		AdfMeta:         traceMeta{Proc: ProcName(), Pid: os.Getpid(), EpochNS: strconv.FormatInt(epoch, 10)},
		Metrics:         Default.Snapshot(),
	})
}

// hexID2 renders the low half of a 128-bit trace ID zero-padded so the
// concatenated form is positionally unambiguous.
func hexID2(v uint64) string {
	s := strconv.FormatUint(v, 16)
	const width = 16
	if len(s) < width {
		s = "0000000000000000"[:width-len(s)] + s
	}
	return s
}

// SpanCount returns the number of live records in the ring (capped at
// the ring capacity).
func SpanCount() int { return spans.count() }
