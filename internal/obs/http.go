package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability HTTP handler:
//
//	/metrics      Prometheus text exposition of the Default registry
//	/trace        Chrome trace_event JSON of the span ring + metrics
//	/healthz      liveness probe ("ok")
//	/statusz      operator page: identity, runtime gauges, RTI latency
//	              quantiles, binary-registered sections
//	/debug/pprof  the standard runtime profiles
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w)
	})
	mux.HandleFunc("/healthz", healthz)
	mux.HandleFunc("/statusz", statusz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve enables observability and starts the HTTP endpoint on addr in
// the background. It returns the bound address (useful with ":0") and a
// close function that stops the listener.
func Serve(addr string) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	SetEnabled(true)
	srv := &http.Server{Handler: Handler()}
	//adf:allow goroleak — debug endpoint serves until the returned close function stops the listener
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), func() { _ = srv.Close() }, nil
}
