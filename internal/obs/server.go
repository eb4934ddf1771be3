package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
)

// Server is the live-exposition endpoint behind the -http flag. It serves
//
//	/metrics      Prometheus text format: campaign progress, engine
//	              counters (State and Work rows), worker occupancy (runner
//	              pool), verdict-cache hit ratio, trial-latency
//	              quantiles, heap/GC stats
//	/statusz      the Progress Snapshot as JSON
//	/healthz      "ok\n" (liveness)
//	/debug/pprof  the standard net/http/pprof handlers, so a live campaign
//	              can be CPU/heap-profiled without stopping it
//
// A nil *Server is inert: Close and Addr are no-ops, so CLIs can wire it
// unconditionally and let the empty -http flag disable it.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	progress *Progress
}

// StartServer listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves
// the exposition endpoints in a background goroutine. progress may be nil:
// the process-level metrics and pprof still work, campaign metrics read as
// absent. An empty addr returns (nil, nil) — the disabled case.
func StartServer(addr string, progress *Progress) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, progress: progress}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address ("" on a nil server) — useful with
// ":0" for tests and for the startup log line.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Safe on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.progress == nil {
		fmt.Fprintln(w, "{}")
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.progress.Snapshot()) //nolint:errcheck // best-effort HTTP response
}

// handleMetrics renders the Prometheus text exposition format. Metric
// families are written in a fixed order so scrapes diff cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	if s.progress != nil {
		st := s.progress.Snapshot()
		gauge("timedice_campaign_scenarios_total", "planned trials in this campaign (0 = unknown)", float64(st.Total))
		counter("timedice_campaign_scenarios_done", "trials completed", st.Done)
		gauge("timedice_campaign_scenarios_inflight", "trials currently executing", float64(st.InFlight))
		counter("timedice_campaign_violations_total", "oracle violations observed", st.Violations)
		counter("timedice_campaign_events_total", "scheduler telemetry events simulated", st.Events)
		gauge("timedice_campaign_rate_scenarios_per_second", "completed trials per wall-clock second", st.RatePerSecond)
		gauge("timedice_campaign_elapsed_seconds", "wall-clock seconds since campaign start", st.ElapsedSeconds)
		counter("timedice_cache_hits_total", "schedulability-verdict cache hits (core.Cache)", st.CacheHits)
		counter("timedice_cache_misses_total", "schedulability-verdict cache misses (core.Cache)", st.CacheMisses)
		gauge("timedice_cache_hit_ratio", "hits / (hits + misses)", st.CacheHitRatio)
		counter("timedice_engine_steps_total", "engine steps (= scheduling decisions) simulated", st.Engine["decisions"])
		for _, row := range engine.CounterRows {
			if row.Class != engine.Host {
				counter("timedice_engine_"+row.Name+"_total", row.Help, st.Engine[row.Name])
			}
		}
		gauge("timedice_engine_arena_bytes_per_step", "mean arena bytes touched per engine step", st.ArenaBytesPerStep)
		fmt.Fprintf(w, "# HELP timedice_trial_seconds per-trial wall-clock quantiles (stats.Sketch)\n# TYPE timedice_trial_seconds summary\n")
		fmt.Fprintf(w, "timedice_trial_seconds{quantile=\"0.5\"} %g\n", st.TrialSecondsP50)
		fmt.Fprintf(w, "timedice_trial_seconds{quantile=\"0.9\"} %g\n", st.TrialSecondsP90)
		fmt.Fprintf(w, "timedice_trial_seconds{quantile=\"0.99\"} %g\n", st.TrialSecondsP99)
	}

	// Worker-pool occupancy, process-wide (runner.Map / MapPooled keep
	// these regardless of which harness is running).
	m := runner.MonitorState()
	counter("timedice_runner_trials_started_total", "trials claimed by pool workers", m.Started)
	counter("timedice_runner_trials_done_total", "trials completed by pool workers", m.Done)
	counter("timedice_runner_trials_failed_total", "trials that returned an error or panicked", m.Failed)
	gauge("timedice_runner_trials_inflight", "trials executing right now (worker occupancy)", float64(m.InFlight))
	gauge("timedice_runner_workers_active", "pool worker goroutines currently alive", float64(m.Workers))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("go_heap_alloc_bytes", "bytes of allocated heap objects", float64(ms.HeapAlloc))
	gauge("go_heap_sys_bytes", "bytes of heap obtained from the OS", float64(ms.HeapSys))
	counter("go_gc_cycles_total", "completed GC cycles", int64(ms.NumGC))
	gauge("go_gc_pause_total_seconds", "cumulative GC stop-the-world pause", float64(ms.PauseTotalNs)/1e9)
	gauge("go_goroutines", "live goroutines", float64(runtime.NumGoroutine()))
}
