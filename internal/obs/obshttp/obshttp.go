// Package obshttp serves an obs.Registry and the Go runtime profiles over
// HTTP, for the daemons' -metrics-addr listeners. It is kept apart from
// package obs so that the tools that never serve HTTP do not link net/http.
package obshttp

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// Handler serves reg at /metrics (Prometheus text format) and
// /metrics.json, and the standard pprof handlers under /debug/pprof/. The
// pprof handlers are wired explicitly: the mux is private, so
// net/http/pprof's registrations on http.DefaultServeMux do not reach it.
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
