package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"
)

// NewMux builds the debug plane every daemon mounts behind
// -metrics-addr:
//
//	/metrics  — Prometheus text exposition of reg
//	/events   — the journal as NDJSON (?n=K limits to the newest K)
//	/healthz  — 200 "ok" while healthz() returns nil, else 503 + error
//	/debug/pprof/* — the standard runtime profiles
//
// The process gauges (registerProcessMetrics) are added to reg. A daemon
// mounts its own pages on the returned mux (hcpoold's /stats) before
// passing it to Serve. reg, journal, and healthz may each be nil: a nil
// registry exposes nothing, a nil journal streams nothing, a nil healthz
// is always healthy.
func NewMux(reg *Registry, journal *Journal, healthz func() error) *http.ServeMux {
	registerProcessMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if journal != nil {
			_ = journal.WriteNDJSON(w, n)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthz != nil {
			if err := healthz(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	// net/http/pprof registers on http.DefaultServeMux at init; mount
	// its handlers here explicitly so the debug plane works on a private
	// mux (and nothing leaks onto the default one by accident).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// registerProcessMetrics adds the runtime gauges every daemon wants —
// goroutine count, heap bytes, GC totals, uptime — to reg.
func registerProcessMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	start := time.Now()
	reg.GaugeFunc("process_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("process_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.CounterFunc("process_gc_total",
		"Completed GC cycles since process start.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the process started.",
		func() float64 { return time.Since(start).Seconds() })
}

// Server is a running debug HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the debug plane h (a NewMux) on addr (e.g.
// "127.0.0.1:6060") and returns immediately. Close shuts it down.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
