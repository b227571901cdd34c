// Package obsrv is the live observability plane: a small embeddable HTTP
// server that exposes the runtime's metrics, traces, health, and Go
// profiling endpoints while a workload runs. It is the software analogue of
// a hardware performance-counter bus — always attached, read on demand,
// never in the data path.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition (version 0.0.4)
//	/healthz        JSON liveness per engine; 503 if any engine is unhealthy
//	/trace          on-demand Chrome trace JSON dump (open in Perfetto)
//	/sessions       JSON snapshot of live serving sessions (cohortd)
//	/stats/latency  JSON per-tenant serving-stage latency breakdown (cohortd)
//	/stats/slo      JSON per-tenant SLO evaluation (telem sampler, cohortd)
//	/stats/windows  JSON windowed per-tenant rates and quantiles (cohortd)
//	/events         JSON structured event ring, ?since=<seq>&max=<n> paging
//	/debug/pprof/*  standard Go profiling (CPU, heap, goroutine, ...)
//
// Every JSON endpoint sets Content-Type: application/json and
// Cache-Control: no-store — the payloads are live snapshots that must never
// be served stale by an intermediary.
//
// The package deliberately depends only on the standard library and is
// decoupled from the runtime through the functional fields of Options: the
// caller supplies writers for metrics and trace payloads and a health
// snapshot function, so the same server fronts the native runtime, the
// simulator, or both.
package obsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Health is one component's liveness as served by /healthz. Err is a string
// (not error) so the struct marshals to JSON directly.
type Health struct {
	Name    string        `json:"name"`
	Err     string        `json:"err,omitempty"`
	Stalled bool          `json:"stalled,omitempty"`
	Idle    time.Duration `json:"idle_ns"`
	// Degraded, when non-empty, says the component has absorbed contained
	// faults (retried transients, killed sessions) but is still serving:
	// /healthz stays 200 with status "degraded" so orchestrators keep the
	// process alive while operators see the damage report.
	Degraded string `json:"degraded,omitempty"`
	// Draining says the component is in drain mode for a rolling restart:
	// it admits nothing new but is still flushing in-flight work. /healthz
	// stays 200 with status "draining" until the last session retires, so
	// routing tiers eject the shard while its clients finish cleanly.
	Draining bool `json:"draining,omitempty"`
}

// Healthy reports whether this component is live: not stalled and not
// parked with a terminal error. A merely degraded component is healthy.
func (h Health) Healthy() bool { return h.Err == "" && !h.Stalled }

// Options wires a Server to the runtime. Every field is optional; endpoints
// whose source is nil respond 404.
type Options struct {
	// MetricsText writes the /metrics payload (Prometheus text format).
	MetricsText func(w io.Writer) error
	// TraceJSON writes the /trace payload (Chrome trace event JSON).
	TraceJSON func(w io.Writer) error
	// Health snapshots component liveness for /healthz.
	Health func() []Health
	// Sessions snapshots live serving sessions for /sessions; the returned
	// value is marshaled as indented JSON (e.g. []sched.SessionInfo).
	Sessions func() any
	// LatencyStats snapshots the per-tenant serving-stage latency breakdown
	// for /stats/latency; the returned value is marshaled as indented JSON
	// (e.g. []sched.TenantLatency).
	LatencyStats func() any
	// SLOStats snapshots the telemetry sampler's SLO evaluation for
	// /stats/slo (e.g. telem.SLODoc).
	SLOStats func() any
	// WindowStats snapshots the windowed per-tenant rates and quantiles for
	// /stats/windows (e.g. telem.WindowsDoc).
	WindowStats func() any
	// Events pages the structured event ring for /events: events with
	// sequence numbers after since, at most max (e.g. telem.Log.PageSince).
	Events func(since uint64, max int) any
	// Drain serves /drain: a POST invokes it with trigger=true (start
	// draining — stop admitting, flush in-flight sessions), a GET with
	// trigger=false; either way the returned drain-progress document is
	// marshaled as JSON (e.g. sched.DrainStatus).
	Drain func(trigger bool) any
	// Ring serves /ring: the cluster routing snapshot clients use for
	// client-side shard routing (e.g. cluster.Catalog.Snapshot).
	Ring func() any
	// Shards serves /shards: the shard catalog with per-shard probe state
	// (cohortgw).
	Shards func() any
}

// eventsDefaultMax bounds an /events page when the request has no max
// parameter, keeping accidental full-ring dumps off the wire.
const eventsDefaultMax = 256

// Server serves the observability endpoints over HTTP.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// Scrape self-metrics, appended to every /metrics response: how many
	// scrapes this server has answered and how long rendering the last one
	// took — the meta-signals a Prometheus operator alerts on when the
	// telemetry plane itself misbehaves.
	scrapes      atomic.Uint64
	lastScrapeNs atomic.Uint64

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// New builds a server with the given sources. Call Serve to bind a
// listener, or mount Handler on an existing server.
func New(opts Options) *Server {
	s := &Server{opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/trace", s.trace)
	mux.HandleFunc("/sessions", s.sessions)
	mux.HandleFunc("/stats/latency", s.latency)
	mux.HandleFunc("/stats/slo", s.slo)
	mux.HandleFunc("/stats/windows", s.windows)
	mux.HandleFunc("/events", s.events)
	mux.HandleFunc("/drain", s.drain)
	mux.HandleFunc("/ring", s.ring)
	mux.HandleFunc("/shards", s.shards)
	mux.HandleFunc("/", s.index)
	// net/http/pprof registers on DefaultServeMux at import; wire the
	// handlers explicitly so this mux works standalone.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the root handler, for embedding into an existing mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve binds addr (e.g. ":9120" or "127.0.0.1:0") and serves in a
// background goroutine until Close. It returns once the listener is bound,
// so Addr is valid immediately after.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed after Close
	return nil
}

// Addr returns the bound listen address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Safe to call without Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.MetricsText == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	t0 := time.Now()
	if err := s.opts.MetricsText(w); err != nil {
		// Headers are gone; best effort is to note the failure inline.
		fmt.Fprintf(w, "# metrics error: %v\n", err)
	}
	// Scrape self-metrics ride the same exposition: total scrapes answered
	// (this one included) and the render cost of the previous scrape — the
	// current one cannot time its own trailer, so each scrape reports its
	// predecessor's duration.
	n := s.scrapes.Add(1)
	fmt.Fprintf(w, "# HELP cohort_scrape_total Scrapes of this /metrics endpoint.\n")
	fmt.Fprintf(w, "# TYPE cohort_scrape_total counter\ncohort_scrape_total %d\n", n)
	fmt.Fprintf(w, "# HELP cohort_scrape_duration_ns Render time of the previous scrape.\n")
	fmt.Fprintf(w, "# TYPE cohort_scrape_duration_ns gauge\ncohort_scrape_duration_ns %d\n", s.lastScrapeNs.Load())
	s.lastScrapeNs.Store(uint64(time.Since(t0)))
}

// writeJSON is the shared JSON response path: explicit media type, no-store
// caching (every payload is a live snapshot), indented body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response writer
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	if s.opts.TraceJSON == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="cohort-trace.json"`)
	if err := s.opts.TraceJSON(w); err != nil {
		fmt.Fprintf(w, "\n// trace error: %v\n", err)
	}
}

// healthzBody is the /healthz JSON document.
type healthzBody struct {
	Status  string   `json:"status"` // "ok", "degraded" or "unhealthy"
	Engines []Health `json:"engines"`
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{Status: "ok"}
	if s.opts.Health != nil {
		body.Engines = s.opts.Health()
	}
	// Severity order: unhealthy (503) beats draining beats degraded; the
	// latter two are both 200 — a draining or degraded daemon is still
	// serving, routing tiers read the status string to decide ejection.
	code := http.StatusOK
	degraded := false
	for _, h := range body.Engines {
		if !h.Healthy() {
			body.Status = "unhealthy"
			code = http.StatusServiceUnavailable
			break
		}
		if h.Draining {
			body.Status = "draining"
		}
		if h.Degraded != "" {
			degraded = true
		}
	}
	if body.Status == "ok" && degraded {
		body.Status = "degraded" // still 200: degraded-but-alive
	}
	writeJSON(w, code, body)
}

func (s *Server) sessions(w http.ResponseWriter, r *http.Request) {
	if s.opts.Sessions == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.opts.Sessions())
}

func (s *Server) latency(w http.ResponseWriter, r *http.Request) {
	if s.opts.LatencyStats == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.opts.LatencyStats())
}

func (s *Server) slo(w http.ResponseWriter, r *http.Request) {
	if s.opts.SLOStats == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.opts.SLOStats())
}

func (s *Server) windows(w http.ResponseWriter, r *http.Request) {
	if s.opts.WindowStats == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.opts.WindowStats())
}

// events serves the structured event ring. Query parameters: since=<seq>
// resumes after a cursor from a previous page (default 0 = oldest held),
// max=<n> caps the page size (default 256; <= 0 rejected).
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	if s.opts.Events == nil {
		http.NotFound(w, r)
		return
	}
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = n
	}
	max := eventsDefaultMax
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad max parameter", http.StatusBadRequest)
			return
		}
		max = n
	}
	writeJSON(w, http.StatusOK, s.opts.Events(since, max))
}

// drain serves the drain-progress document and, on POST, triggers drain
// mode: the rolling-restart entry point an orchestrator hits before sending
// SIGTERM. GET is a pure status read.
func (s *Server) drain(w http.ResponseWriter, r *http.Request) {
	if s.opts.Drain == nil {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodPost:
		writeJSON(w, http.StatusOK, s.opts.Drain(true))
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.opts.Drain(false))
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "use POST to trigger drain, GET to read progress", http.StatusMethodNotAllowed)
	}
}

func (s *Server) ring(w http.ResponseWriter, r *http.Request) {
	if s.opts.Ring == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.opts.Ring())
}

func (s *Server) shards(w http.ResponseWriter, r *http.Request) {
	if s.opts.Shards == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.opts.Shards())
}

// index is a minimal landing page listing the endpoints.
func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "cohort observability\n\n/metrics\n/healthz\n/trace\n/sessions\n/stats/latency\n/stats/slo\n/stats/windows\n/events\n/drain\n/ring\n/shards\n/debug/pprof/\n") //nolint:errcheck
}

// AwaitShutdown is the shared daemon exit path: print banner (when
// non-empty), block until SIGINT or SIGTERM, then run each shutdown hook in
// order. Every cmd/ daemon funnels through here so signal handling is wired
// — and behaves — identically across them.
func AwaitShutdown(banner string, shutdown ...func()) {
	if banner != "" {
		fmt.Println(banner)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	for _, fn := range shutdown {
		fn()
	}
}
