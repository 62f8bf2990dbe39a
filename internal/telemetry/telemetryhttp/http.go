// Package telemetryhttp exposes a telemetry.Registry over HTTP. It is kept
// apart from package telemetry so the packages that only record metrics
// (the simulator, the inference core) do not link the network stack.
package telemetryhttp

import (
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/telemetry"
)

// Serve starts an HTTP server on addr exposing the standard net/http/pprof
// profiling handlers under /debug/pprof/ and the registry as Prometheus
// text under /metrics (live: each scrape takes a fresh snapshot). It
// returns the bound address (useful with ":0") and a shutdown function, or
// an error if the listener cannot be opened. The server runs until close is
// called; serving errors after a successful start are ignored, as they can
// only occur during shutdown.
func Serve(addr string, reg *telemetry.Registry) (bound string, close func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.Snapshot().WritePrometheus(w)
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
