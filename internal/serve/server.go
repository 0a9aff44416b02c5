package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"fade/internal/obs"
	"fade/internal/spans"
)

// Server is the HTTP surface over a Scheduler. Build one with New, mount
// Handler on an http.Server, and call Drain on SIGTERM.
type Server struct {
	opts    Options
	sched   *Scheduler
	buckets *buckets
	handler http.Handler
}

// Routes lists every route pattern the server registers, in documentation
// order. The docs coverage test asserts each appears in docs/SERVING.md.
var Routes = []string{
	"POST /v1/runs",
	"GET /v1/runs",
	"GET /v1/runs/{id}",
	"DELETE /v1/runs/{id}",
	"GET /v1/runs/{id}/timeline",
	"GET /v1/runs/{id}/trace",
	"GET /metrics",
	"GET /healthz",
	"GET /readyz",
}

// New builds a server and starts its scheduler.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		sched:   NewScheduler(opts),
		buckets: newBuckets(opts.TenantRate, opts.TenantBurst, opts.Now),
	}
	s.sched.reg.Register(obs.CollectorFunc(func(sink obs.Sink) {
		sink.Gauge("serve.tenants", float64(s.buckets.tenants()))
	}))

	mux := http.NewServeMux()
	route := func(pattern, key string, h http.HandlerFunc) {
		mux.Handle(pattern, s.timed(key, h))
	}
	route("POST /v1/runs", "submit", s.handleSubmit)
	route("GET /v1/runs", "list", s.handleList)
	route("GET /v1/runs/{id}", "status", s.handleStatus)
	route("DELETE /v1/runs/{id}", "cancel", s.handleCancel)
	route("GET /v1/runs/{id}/timeline", "timeline", s.handleTimeline)
	route("GET /v1/runs/{id}/trace", "trace", s.handleTrace)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no such route: "+r.URL.Path)
	})
	s.handler = s.counted(mux)
	return s
}

// Handler returns the root handler (routing + metrics middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Scheduler exposes the underlying scheduler (cancellation from the CLI,
// tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Drain gracefully shuts the scheduler down; see Scheduler.Drain. The
// HTTP listener itself is the caller's to close (http.Server.Shutdown).
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Close shuts down immediately, canceling every queued and running run.
func (s *Server) Close() { s.sched.Close() }

// statusRecorder captures the response status for the metrics middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// counted wraps the whole mux: every request, matched or not, feeds the
// serve.http.requests / serve.http.responses.* counters.
func (s *Server) counted(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.sched.met.observeHTTP(rec.status)
	})
}

// timed wraps one route: request latency lands in that route's
// serve.http.latency_us.<route> histogram.
func (s *Server) timed(key string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next(w, r)
		s.sched.met.observeLatency(key, time.Since(start))
	})
}

// tenantOf extracts the tenant identity: X-API-Key, else a bearer token,
// else the shared "anonymous" tenant.
func tenantOf(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		if k := strings.TrimSpace(strings.TrimPrefix(auth, "Bearer ")); k != "" {
			return k
		}
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		s.writeErr(w, http.StatusServiceUnavailable, ErrCodeDraining, "server is draining; submissions are rejected")
		return
	}
	tenant := tenantOf(r)
	if ok, wait := s.buckets.take(tenant); !ok {
		s.sched.met.throttled.Inc()
		w.Header().Set("Retry-After", retryAfter(wait+s.sched.retryJitter()))
		s.writeErr(w, http.StatusTooManyRequests, ErrCodeThrottled, "tenant rate limit exceeded")
		return
	}

	var req SubmitRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, ErrCodeBadJSON, "decoding submission: "+err.Error())
		return
	}
	spec, err := req.Spec(s.opts.DefaultInstrs, s.opts.Limits)
	if err != nil {
		s.writeAPIErr(w, err)
		return
	}

	run, err := s.sched.Submit(tenant, spec)
	if err != nil {
		var ae *apiErr
		if errors.As(err, &ae) && ae.code == ErrCodeQueueFull {
			// Computed, not hard-coded: the hint scales with how long the
			// backlog will actually take to drain.
			w.Header().Set("Retry-After", retryAfter(s.sched.RetryAfterHint()))
		}
		s.writeAPIErr(w, err)
		return
	}
	if v := r.URL.Query().Get("wait"); v == "1" || v == "true" {
		// Synchronous mode: the response is the terminal run record, the
		// connection is the lifetime — a disconnected client cancels the
		// run (it aborts at its next scheduler checkpoint and still
		// flushes partial results).
		select {
		case <-run.done:
		case <-r.Context().Done():
			s.sched.Cancel(run.ID)
			<-run.done
		}
		s.writeJSON(w, http.StatusOK, s.sched.Info(run))
		return
	}
	w.Header().Set("Location", "/v1/runs/"+run.ID)
	s.writeJSON(w, http.StatusAccepted, s.sched.Info(run))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	runs := s.sched.List(r.URL.Query().Get("state"))
	s.writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run := s.sched.Get(r.PathValue("id"))
	if run == nil {
		s.writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no run "+r.PathValue("id"))
		return
	}
	s.writeJSON(w, http.StatusOK, s.sched.Info(run))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sched.Cancel(id) {
		s.writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no run "+id)
		return
	}
	s.writeJSON(w, http.StatusOK, s.sched.Info(s.sched.Get(id)))
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	run := s.sched.Get(id)
	if run == nil {
		s.writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no run "+id)
		return
	}
	points, ok := s.sched.Timeline(run)
	if !ok {
		s.writeErr(w, http.StatusConflict, ErrCodeNotReady, "run "+id+" has not finished; its timeline is not available yet")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Stream line by line: each timeline point is flushed as written so a
	// consumer tailing a large timeline sees steady progress.
	fw := io.Writer(w)
	if f, ok := w.(http.Flusher); ok {
		fw = flushWriter{w: w, f: f}
	}
	_ = obs.WriteTimeline(fw, run.Spec.Benchmark+"/"+run.Spec.Monitor, points)
}

// handleTrace serves a terminal run's span trace: Chrome trace-event JSON
// by default (load the body directly in Perfetto or chrome://tracing), or
// one-span-per-line JSONL with ?format=jsonl. See docs/TRACING.md.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	run := s.sched.Get(id)
	if run == nil {
		s.writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no run "+id)
		return
	}
	tr, ok := s.sched.Trace(run)
	if !ok {
		s.writeErr(w, http.StatusConflict, ErrCodeNotReady, "run "+id+" has not finished; its trace is not available yet")
		return
	}
	if tr == nil {
		s.writeErr(w, http.StatusNotFound, ErrCodeNotFound, "tracing is disabled on this server")
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = spans.WriteJSONL(w, tr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = spans.WriteChromeJSON(w, tr)
}

// flushWriter flushes after every write (obs.WriteTimeline writes one
// timeline point per call).
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The exposition is the server registry (serve.* plus queue/pool
	// gauges) followed by the hub's recent run snapshots, labeled by
	// {run, tenant, bench, monitor} — the shared view across concurrent
	// runs.
	snaps := append([]obs.LabeledSnapshot{{Snap: s.sched.reg.Snapshot()}}, s.sched.hub.Snapshots()...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, snaps)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.sched.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeAPIErr maps a validation/admission error onto its HTTP status.
func (s *Server) writeAPIErr(w http.ResponseWriter, err error) {
	var ae *apiErr
	if !errors.As(err, &ae) {
		s.writeErr(w, http.StatusInternalServerError, ErrCodeInternal, err.Error())
		return
	}
	status := http.StatusInternalServerError
	switch ae.code {
	case ErrCodeBadJSON, ErrCodeInvalidConfig:
		status = http.StatusBadRequest
	case ErrCodeLimitsExceeded:
		status = http.StatusUnprocessableEntity
	case ErrCodeThrottled, ErrCodeQueueFull:
		status = http.StatusTooManyRequests
	case ErrCodeDraining:
		status = http.StatusServiceUnavailable
	case ErrCodeNotFound:
		status = http.StatusNotFound
	case ErrCodeNotReady:
		status = http.StatusConflict
	}
	s.writeErr(w, status, ae.code, ae.msg)
}

func (s *Server) writeErr(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, map[string]APIError{"error": {Code: code, Message: msg}})
}
