// Package obs is the repository's observability layer: a typed metrics
// registry (atomic counters, gauges and fixed-bucket histograms), a
// lightweight per-stage span recorder exportable as Chrome trace_event
// JSON, and an NDJSON structured event log — all stdlib-only.
//
// The layer costs nothing while it is off. It is gated at run time
// behind a single atomic enable flag, so binaries switch it on with a
// flag (`adfsim -obs-addr`, `adfbench -trace`) without a rebuild.
//
//   - Disabled (the default), every instrument's record method is a load
//     of one atomic bool and a branch; the engine's hot path additionally
//     batches its counts in a plain (non-atomic) TickLocal accumulator
//     that costs sub-nanosecond adds, so TestZeroAllocTick still measures
//     0 allocs/tick and throughput is unchanged.
//   - Enabled, the per-tick flush publishes the batch into the global
//     atomic registry — a few dozen atomic adds per tick, not per node —
//     keeping the recorded overhead within the ≤5% budget committed in
//     BENCH_obs.json.
//
// Everything global is safe for concurrent use: parallel campaign
// workers flush into the same registry, and the HTTP endpoint
// (/metrics, /trace, /debug/pprof) reads it while simulations run.
package obs

import (
	"sync/atomic"
	"time"
)

// on is the single global enable flag every instrument checks.
var on atomic.Bool

// Enabled reports whether observability recording is on.
func Enabled() bool { return on.Load() }

// SetEnabled switches observability recording on or off. Counters are
// cumulative over the process; disabling stops recording but keeps the
// accumulated values readable.
func SetEnabled(v bool) { on.Store(v) }

// epoch anchors span timestamps so trace files start near zero.
var epoch = nowNanos()

// nowNanos is the package's one wall-clock read, centralised so the
// determinism lint rule has a single annotated site. Observability
// timing never feeds back into simulation state.
//
// definition; nothing read here flows into simulation results.
//
//adf:allow determinism — observability measures wall-clock time by
func nowNanos() int64 { return time.Now().UnixNano() }

// sinceEpochMicros converts an absolute nanosecond timestamp into
// microseconds since the process's trace epoch (the unit Chrome's
// trace_event format uses).
func sinceEpochMicros(ns int64) float64 {
	return float64(ns-epoch) / 1e3
}
