package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// KV is one key/value field of a structured event. A non-empty S makes
// the value a JSON string; otherwise V renders as a number.
type KV struct {
	K string
	V float64
	S string
}

// F returns a numeric event field.
func F(k string, v float64) KV { return KV{K: k, V: v} }

// S returns a string event field.
func S(k, s string) KV { return KV{K: k, V: 0, S: s} }

// EventLog writes discrete occurrences — reclustering passes, federate
// joins and resigns — as NDJSON, one self-contained JSON object per
// line:
//
//	{"seq":12,"ms":345.678,"kind":"federate_join","federation":"mobilegrid","name":"sender"}
//
// The log is disabled until SetOutput installs a writer; disabled Emit
// is one atomic load. The line buffer is reused, so steady-state
// emission does not allocate.
type EventLog struct {
	enabled atomic.Bool

	mu sync.Mutex

	w   io.Writer
	seq uint64
	buf []byte
}

// Events is the process-wide event log the binaries wire their -obs
// flags to.
var Events = &EventLog{}

// SetOutput installs (or, with nil, removes) the log's writer.
func (l *EventLog) SetOutput(w io.Writer) {
	l.mu.Lock()
	l.w = w
	l.mu.Unlock()
	l.enabled.Store(w != nil)
}

// On reports whether the log has a writer; call sites with any cost in
// building fields should check it before Emit.
func (l *EventLog) On() bool { return l.enabled.Load() }

// Now returns the wall clock (absolute Unix nanoseconds) for
// event-correlated timestamps when the log has a writer, 0 otherwise —
// gated like Emit so a disabled probe costs one atomic load and no
// clock read. Sync-point probes stamp both endpoints of their exchange
// with this clock so the cross-process merger can estimate clock
// offsets.
func (l *EventLog) Now() int64 {
	if !l.enabled.Load() {
		return 0
	}
	return nowNanos()
}

// Seq returns the number of events emitted.
func (l *EventLog) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Emit writes one event line. It is safe for concurrent use and a no-op
// without a writer.
func (l *EventLog) Emit(kind string, fields ...KV) {
	if !l.enabled.Load() {
		return
	}
	now := nowNanos()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return
	}
	l.seq++
	b := l.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, l.seq, 10)
	b = append(b, `,"ms":`...)
	b = strconv.AppendFloat(b, sinceEpochMicros(now)/1e3, 'f', 3, 64)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, kind)
	for _, f := range fields {
		b = append(b, ',')
		b = strconv.AppendQuote(b, f.K)
		b = append(b, ':')
		if f.S != "" {
			b = strconv.AppendQuote(b, f.S)
		} else {
			b = strconv.AppendFloat(b, f.V, 'g', -1, 64)
		}
	}
	b = append(b, '}', '\n')
	l.buf = b
	// Write errors are swallowed: the event log is diagnostics, and a
	// broken pipe must never abort a simulation.
	_, _ = l.w.Write(b)
}
