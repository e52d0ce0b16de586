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
	// StageAdvance is the mobility-advance stage (parallel when the
	// pipeline runs on more than one worker).
	StageAdvance Stage = iota
	// StageNodes is the per-node chain over every shard: churn,
	// collect, filter, deliver.
	StageNodes
	// StageObservers is the OnTick fan-out to the metric sinks.
	StageObservers
	// StageTick is the whole sampling round.
	StageTick
	// StageShard is one region shard's stage chain in the region
	// partition (churn-gated collect → filter → broker delivery over the
	// shard's members).
	StageShard
	// StageMerge is the pipeline's deterministic merge step: observer
	// replay and tally folding in stable shard order.
	StageMerge
	// numStages sizes stage-indexed arrays.
	numStages
)

// stageNames maps Stage values to their trace and metric names. Indexed
// by int rather than switched over so no exhaustiveness obligation
// spreads to callers.
var stageNames = [numStages]string{"advance", "nodes", "observers", "tick", "shard", "merge"}

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

// spanRingCap bounds the trace ring: 1<<15 records ≈ 6.5k ticks of the
// five pipeline stages, ~1 MiB, allocated on the first recording.
const spanRingCap = 1 << 15

// spanRing is a fixed-capacity ring of completed spans. A mutex (not
// atomics) guards it: recording happens a handful of times per tick,
// and the /trace endpoint reads it while simulations run.
type spanRing struct {
	mu sync.Mutex

	//adf:guardedby mu
	records []spanRecord
	//adf:guardedby mu
	next int
	//adf:guardedby mu
	wrapped bool
}

var spans spanRing

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

// RecordTickSpans publishes one tick's whole stage chain — advance,
// nodes, merge, observers and the enclosing tick span — under a single
// ring lock acquisition, so the engine's per-tick path pays one
// lock/unlock pair and one atomic gate load for all five spans.
// Boundaries come from one StageStart and four StageClock reads; a zero
// t0 means the chain was never opened.
func RecordTickSpans(tid uint32, t0, t1, t2, t3, t4 int64) {
	if t0 == 0 || t1 < t0 || t2 < t1 || t3 < t2 || t4 < t3 || !on.Load() {
		return
	}
	stageSeconds[StageAdvance].observe(float64(t1-t0) / 1e9)
	stageSeconds[StageNodes].observe(float64(t2-t1) / 1e9)
	stageSeconds[StageMerge].observe(float64(t3-t2) / 1e9)
	stageSeconds[StageObservers].observe(float64(t4-t3) / 1e9)
	stageSeconds[StageTick].observe(float64(t4-t0) / 1e9)
	recs := [5]spanRecord{
		{stage: StageAdvance, tid: tid, shard: -1, startNS: t0, durNS: t1 - t0},
		{stage: StageNodes, tid: tid, shard: -1, startNS: t1, durNS: t2 - t1},
		{stage: StageMerge, tid: tid, shard: -1, startNS: t2, durNS: t3 - t2},
		{stage: StageObservers, tid: tid, shard: -1, startNS: t3, durNS: t4 - t3},
		{stage: StageTick, tid: tid, shard: -1, startNS: t0, durNS: t4 - t0},
	}
	spans.mu.Lock()
	if spans.records == nil {
		spans.records = make([]spanRecord, spanRingCap)
	}
	for _, rec := range recs {
		spans.records[spans.next] = rec
		spans.next++
		if spans.next == len(spans.records) {
			spans.next = 0
			spans.wrapped = true
		}
	}
	spans.mu.Unlock()
}

// RecordShardSpan records one region shard's StageShard span with
// explicit endpoints, tagging the trace record with the shard index and
// feeding both the aggregate stage histogram and the shard's own series
// when one is supplied. The endpoints are read inside the shard worker
// (StageStart there is race-free — it touches no shared state); the
// engine's merge step calls this sequentially in shard order.
func RecordShardSpan(tid uint32, shard int, h *Histogram, start, end int64) {
	if start == 0 || end < start || !on.Load() {
		return
	}
	spans.record(spanRecord{stage: StageShard, tid: tid, shard: int32(shard), startNS: start, durNS: end - start})
	sec := float64(end-start) / 1e9
	stageSeconds[StageShard].observe(sec)
	if h != nil {
		h.observe(sec)
	}
}

func (r *spanRing) record(rec spanRecord) {
	r.mu.Lock()
	if r.records == nil {
		r.records = make([]spanRecord, spanRingCap)
	}
	r.records[r.next] = rec
	r.next++
	if r.next == len(r.records) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// snapshot copies the ring's live records in recording order.
func (r *spanRing) snapshot() []spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.records == nil {
		return nil
	}
	var out []spanRecord
	if r.wrapped {
		out = make([]spanRecord, 0, len(r.records))
		out = append(out, r.records[r.next:]...)
		out = append(out, r.records[:r.next]...)
	} else {
		out = append([]spanRecord(nil), r.records[:r.next]...)
	}
	return out
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
func SpanCount() int {
	spans.mu.Lock()
	defer spans.mu.Unlock()
	if spans.wrapped {
		return len(spans.records)
	}
	return spans.next
}
