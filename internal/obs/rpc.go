package obs

// RTI request-latency instrumentation and cross-process trace identity.
// The hla client and server record each request's phases (encode, the
// network round trip, server-side handle, TSO queue residency, delivery
// fan-out) into fixed-bucket histograms labeled by operation, and traced
// frames' spans into a dedicated ring exported alongside the engine's
// stage spans in the Chrome trace. Trace and span IDs are generated here
// (splitmix64 over a per-process salt) so concurrent processes never
// collide, and wire.TraceContext carries them across the TCP boundary.

import (
	"os"
	"strconv"
	"sync/atomic"

	"github.com/mobilegrid/adf/internal/wire"
)

// RPCOp names one RTI request kind for latency labeling. Service
// methods that share a shape (publish/subscribe bookkeeping) fold into
// OpOther rather than exploding the label space.
type RPCOp int

const (
	OpJoin RPCOp = iota
	OpInteraction
	OpAdvance
	OpTick
	OpSync
	OpResign
	OpOther
	numRPCOps
)

// rpcOpNames is indexed rather than switched so no exhaustiveness
// obligation spreads to callers.
var rpcOpNames = [numRPCOps]string{
	"join", "interaction", "advance", "tick", "sync", "resign", "other",
}

// String returns the op's metric label.
func (o RPCOp) String() string {
	if o < 0 || o >= numRPCOps {
		return "other"
	}
	return rpcOpNames[o]
}

// RPCPhase names one measured segment of a request's journey.
type RPCPhase int

const (
	// PhaseEncode is client-side payload encoding up to the socket write.
	PhaseEncode RPCPhase = iota
	// PhaseRTT is the client's socket write to terminal-response read.
	PhaseRTT
	// PhaseHandle is the server's frame-read to response-write span.
	PhaseHandle
	// PhaseQueue is a TSO callback's residency in the receiver's queue
	// (enqueue at send to pop at delivery encode).
	PhaseQueue
	// PhaseDeliver is the server's callback encode+write to a receiving
	// federate's connection.
	PhaseDeliver
	numRPCPhases
)

var rpcPhaseNames = [numRPCPhases]string{"encode", "rtt", "handle", "queue", "deliver"}

// String returns the phase's metric label.
func (p RPCPhase) String() string {
	if p < 0 || p >= numRPCPhases {
		return "unknown"
	}
	return rpcPhaseNames[p]
}

// RPCSecondsBounds are the request-latency bucket bounds in seconds:
// 1 µs (in-process loopback encode) to 3 s (a request parked behind a
// blocked time-advance) in a 1-3-10 ladder.
var RPCSecondsBounds = []float64{
	1e-6, 3e-6, 10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 300e-3, 1, 3,
}

// rpcSeconds is the phase×op latency histogram family, pre-registered
// so /metrics renders the full shape before the first request.
var rpcSeconds = func() (hs [numRPCPhases][numRPCOps]*Histogram) {
	for p := RPCPhase(0); p < numRPCPhases; p++ {
		for o := RPCOp(0); o < numRPCOps; o++ {
			hs[p][o] = Default.Histogram("adf_rpc_seconds", RPCSecondsBounds,
				"phase", p.String(), "op", o.String())
		}
	}
	return
}()

// RPCClock returns the wall clock for an RPC phase boundary, or 0 when
// observability is disabled (one atomic load, no clock read). A zero
// start token makes every downstream Observe/Record call a no-op, so
// call sites need no second gate.
func RPCClock() int64 {
	if !on.Load() {
		return 0
	}
	return nowNanos()
}

// ObserveRPC records one phase duration. Zero or inverted endpoints
// (observability was off at the start token) record nothing.
func ObserveRPC(p RPCPhase, op RPCOp, startNS, endNS int64) {
	if startNS == 0 || endNS < startNS || !on.Load() {
		return
	}
	rpcSeconds[p][op].observe(float64(endNS-startNS) / 1e9)
}

// RPCQuantiles returns the (p50, p95, p99) estimate for one phase×op
// series and its observation count; count 0 means no traffic yet.
func RPCQuantiles(p RPCPhase, op RPCOp) (p50, p95, p99 float64, count uint64) {
	if p < 0 || p >= numRPCPhases || op < 0 || op >= numRPCOps {
		return 0, 0, 0, 0
	}
	h := rpcSeconds[p][op]
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Count()
}

// RPCKind places a recorded trace span on one side of the wire.
type RPCKind int

const (
	// KindClientOp is a client service call (encode through terminal
	// response).
	KindClientOp RPCKind = iota
	// KindClientRecv is a traced callback's arrival at a client.
	KindClientRecv
	// KindServerHandle is the server's dispatch of one inbound frame.
	KindServerHandle
	// KindServerDeliver is the server's callback fan-out to one
	// receiving federate.
	KindServerDeliver
	numRPCKinds
)

var rpcKindNames = [numRPCKinds]string{"client", "client:recv", "server:handle", "server:deliver"}

// String returns the kind's trace-name prefix.
func (k RPCKind) String() string {
	if k < 0 || k >= numRPCKinds {
		return "unknown"
	}
	return rpcKindNames[k]
}

// rpcTIDBase offsets the trace track IDs RPC spans render on, keeping
// them clear of the engine's NextTID-issued pipeline tracks.
const rpcTIDBase = 65000

// rpcRecord is one completed traced span in the RPC ring.
type rpcRecord struct {
	kind    RPCKind
	op      RPCOp
	tc      wire.TraceContext
	startNS int64
	durNS   int64
}

// rpcSpans holds the traced RPC spans.
var rpcSpans traceRing[rpcRecord]

// RecordRPC records one traced span into the RPC ring. Untraced
// (zero-context) or zero-start spans record nothing, as does a disabled
// gate, so the call is safe on every path.
func RecordRPC(k RPCKind, op RPCOp, tc wire.TraceContext, startNS, endNS int64) {
	if startNS == 0 || endNS < startNS || !tc.Valid() || !on.Load() {
		return
	}
	recs := [1]rpcRecord{{kind: k, op: op, tc: tc, startNS: startNS, durNS: endNS - startNS}}
	rpcSpans.record(recs[:])
}

// RPCSpanCount returns the number of live records in the RPC ring.
func RPCSpanCount() int { return rpcSpans.count() }

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// outputs over distinct inputs are collision-free per process and
// well-spread across processes via the salt.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// idCounter feeds sequential inputs into the mixer.
var idCounter atomic.Uint64

// procSalt spreads concurrently started processes across the ID space:
// the wall-clock epoch and pid differ between any two federates that
// could ever share a federation.
var procSalt = splitmix64(uint64(epoch)) ^ splitmix64(uint64(os.Getpid())<<20)

// NextSpanID returns a fresh 64-bit span ID, unique within the process
// and salted across processes.
func NextSpanID() uint64 {
	return splitmix64(procSalt + idCounter.Add(1))
}

// NewTraceContext opens a new root trace: fresh 128-bit trace ID, fresh
// span ID, no parent, origin stamped with the caller's clock reading.
func NewTraceContext(originNS int64) wire.TraceContext {
	tc := wire.TraceContext{
		TraceHi:  NextSpanID(),
		TraceLo:  NextSpanID(),
		SpanID:   NextSpanID(),
		OriginNS: originNS,
	}
	if !tc.Valid() {
		tc.TraceLo = 1
	}
	return tc
}

// ChildContext derives the next hop's context: same trace and origin, a
// fresh span ID, parent set to the previous hop's span.
func ChildContext(tc wire.TraceContext) wire.TraceContext {
	tc.ParentID = tc.SpanID
	tc.SpanID = NextSpanID()
	return tc
}

// FreshPoint names a point where LU freshness (delivery wall-lag versus
// the origin tick's timestamp) is observed.
type FreshPoint int

const (
	// FreshRecv is the receiving client's callback-arrival point.
	FreshRecv FreshPoint = iota
	// FreshDeliver is the server's fan-out write to a receiver.
	FreshDeliver
	numFreshPoints
)

// Freshness instruments: the histogram distributes the lag per
// observation point; the gauge mirrors the latest delivery lag in
// microseconds for /statusz at-a-glance staleness.
var (
	luFreshness = [numFreshPoints]*Histogram{
		Default.Histogram("adf_lu_freshness_seconds", RPCSecondsBounds, "point", "recv"),
		Default.Histogram("adf_lu_freshness_seconds", RPCSecondsBounds, "point", "deliver"),
	}
	// LUStalenessMicros gauges the most recent observed delivery lag.
	LUStalenessMicros = Default.Gauge("adf_lu_staleness_us")
)

// ObserveFreshness records one LU's wall-lag between its origin stamp
// and nowNS. Zero or inverted stamps record nothing.
func ObserveFreshness(p FreshPoint, originNS, nowNS int64) {
	if p < 0 || p >= numFreshPoints || originNS == 0 || nowNS < originNS || !on.Load() {
		return
	}
	lag := nowNS - originNS
	luFreshness[p].observe(float64(lag) / 1e9)
	LUStalenessMicros.Set(lag / 1e3)
}

// Side places an error on one end of the RTI connection.
type Side int

const (
	SideClient Side = iota
	SideServer
	numSides
)

var sideNames = [numSides]string{"client", "server"}

// String returns the side's metric label.
func (s Side) String() string {
	if s < 0 || s >= numSides {
		return "unknown"
	}
	return sideNames[s]
}

// ErrClass classifies an RTI transport failure: an I/O deadline expiry
// (from SetIOTimeouts), a peer hangup, or a malformed frame. The
// classes make deadline errors distinguishable from hangups in
// counters, which raw error strings never were.
type ErrClass int

const (
	ErrTimeout ErrClass = iota
	ErrEOF
	ErrDecode
	numErrClasses
)

var errClassNames = [numErrClasses]string{"timeout", "eof", "decode"}

// String returns the class's metric label.
func (c ErrClass) String() string {
	if c < 0 || c >= numErrClasses {
		return "unknown"
	}
	return errClassNames[c]
}

// rtiErrors is the side×class error counter family.
var rtiErrors = func() (cs [numSides][numErrClasses]*Counter) {
	for s := Side(0); s < numSides; s++ {
		for c := ErrClass(0); c < numErrClasses; c++ {
			cs[s][c] = Default.Counter("adf_rti_errors_total", "side", s.String(), "class", c.String())
		}
	}
	return
}()

// RTIError counts one classified transport error.
func RTIError(s Side, c ErrClass) {
	if s < 0 || s >= numSides || c < 0 || c >= numErrClasses {
		return
	}
	rtiErrors[s][c].Inc()
}

// procName labels this process in trace exports and /statusz so merged
// cross-process traces attribute spans to their emitter.
var procName atomic.Value

// SetProcName sets the process label ("rtiserver", "adfsim", a federate
// name). Empty until a binary's main sets it.
func SetProcName(name string) { procName.Store(name) }

// ProcName returns the process label, or "" before SetProcName.
func ProcName() string {
	if v := procName.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// EpochNanos returns the process's trace epoch as absolute Unix
// nanoseconds; exported so per-process trace files carry the anchor the
// cross-process merger needs to restore absolute time.
func EpochNanos() int64 { return epoch }

// hexID renders a span/trace ID component the way trace args carry
// them.
func hexID(v uint64) string { return strconv.FormatUint(v, 16) }
