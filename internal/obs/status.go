package obs

// Serving surfaces: /healthz (liveness) and /statusz (a plain-text
// operator page: process identity, runtime gauges, RTI request-latency
// quantiles, and binary-registered sections such as the rtiserver's
// federation roster). Sections are callbacks so the page always renders
// live state without obs depending on the binaries' types.

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
)

// statusSection is one binary-contributed block of the /statusz page.
type statusSection struct {
	name string
	fn   func() string
}

// statusMu guards statusSections.
var statusMu sync.Mutex

var statusSections []statusSection

// RegisterStatusSection adds a named section to /statusz. fn is called
// on every render and must be safe for concurrent use; registering the
// same name again replaces the section.
func RegisterStatusSection(name string, fn func() string) {
	statusMu.Lock()
	defer statusMu.Unlock()
	for i := range statusSections {
		if statusSections[i].name == name {
			statusSections[i].fn = fn
			return
		}
	}
	statusSections = append(statusSections, statusSection{name: name, fn: fn})
}

// snapshotSections copies the section list under the lock.
func snapshotSections() []statusSection {
	statusMu.Lock()
	defer statusMu.Unlock()
	out := append([]statusSection(nil), statusSections...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// healthz answers liveness probes: the process is up and its mux is
// serving.
func healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// statusz renders the operator status page.
func statusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	WriteStatus(w)
}

// WriteStatus writes the /statusz body: identity and uptime, runtime
// and GC gauges, per-op RTI latency quantiles (series with traffic
// only), then every registered section.
func WriteStatus(w io.Writer) {
	name := ProcName()
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "proc: %s\n", name)
	fmt.Fprintf(w, "uptime_seconds: %.1f\n", float64(nowNanos()-epoch)/1e9)
	fmt.Fprintf(w, "obs_enabled: %v\n", Enabled())
	fmt.Fprintf(w, "goroutines: %d\n", runtime.NumGoroutine())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "heap_alloc_bytes: %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "gc_runs: %d\n", ms.NumGC)
	fmt.Fprintf(w, "gc_pause_total_seconds: %.6f\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "lu_staleness_us: %d\n", LUStalenessMicros.Value())

	header := false
	for p := RPCPhase(0); p < numRPCPhases; p++ {
		for op := RPCOp(0); op < numRPCOps; op++ {
			p50, p95, p99, n := RPCQuantiles(p, op)
			if n == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\n[rpc latency]\n")
				header = true
			}
			fmt.Fprintf(w, "%s/%s: n=%d p50=%.6fs p95=%.6fs p99=%.6fs\n",
				p.String(), op.String(), n, p50, p95, p99)
		}
	}

	for _, s := range snapshotSections() {
		fmt.Fprintf(w, "\n[%s]\n%s", s.name, s.fn())
	}
}
