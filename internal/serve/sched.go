package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fade/internal/obs"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/spans"
	"fade/internal/system"
	"fade/internal/trace"
)

// Options configures a Server/Scheduler. The zero value of every field
// selects a sensible daemon default.
type Options struct {
	// Workers is how many runs execute at once (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the admission queue (default 4 * workers).
	QueueCap int
	// TenantRate / TenantBurst parameterize the per-tenant token buckets
	// (tokens per second and bucket size). Rate <= 0 disables rate
	// limiting.
	TenantRate  float64
	TenantBurst float64
	// DefaultInstrs is the instruction budget applied when a submission
	// omits instrs (default 400000).
	DefaultInstrs uint64
	// Limits are the admission bounds; the zero value selects
	// DefaultLimits.
	Limits Limits
	// MetricsRuns bounds how many recent run snapshots /metrics retains
	// (default 32; negative disables run snapshots on /metrics).
	MetricsRuns int
	// MemSoftLimitBytes arms the load shedder: when the Go heap exceeds
	// it at submission time, the oldest queued run is shed to admit the
	// new one. 0 disables shedding.
	MemSoftLimitBytes uint64

	// Cache, when non-nil, memoizes completed runs by their canonical
	// spec hash: resubmitting an identical run returns the stored result
	// (byte-identical document, "cached": true in the envelope) without
	// simulating. The cache's metrics (cache.*) are folded into the
	// scheduler registry. Shareable with fadebench sweeps via a common
	// -cache-dir.
	Cache *rcache.Cache

	// TraceCap sizes each run's span ring: 0 selects spans.DefaultCapacity,
	// a negative value disables per-run tracing entirely (no ring is
	// allocated and GET /v1/runs/{id}/trace returns 404). Every admitted
	// run gets its own trace, identified by the run ID, carrying the
	// serving path's wall-clock spans and — because the trace rides the
	// run's context into the simulator — the cycle-domain spans of the
	// same run (docs/TRACING.md).
	TraceCap int
	// TraceDir, when non-empty, persists each executed run's trace as
	// <dir>/<run-id>.trace.json (Chrome trace-event JSON) at completion.
	TraceDir string

	// Logger receives structured run-lifecycle records (submitted,
	// started, finished, canceled, shed), each carrying run, tenant, and
	// trace_id attributes. nil disables logging (the library default —
	// cmd/fadeserve installs a JSON logger).
	Logger *slog.Logger

	// MemPressure overrides the heap check (tests). When set,
	// MemSoftLimitBytes is ignored.
	MemPressure func() bool
	// Runner overrides run execution (tests). Defaults to system.ExecSpec;
	// the scheduler passes system.WithCache(Cache).
	Runner func(ctx context.Context, spec runspec.Spec, opts ...system.Option) (*system.Outcome, error)
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.Workers
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 8
	}
	if o.DefaultInstrs == 0 {
		o.DefaultInstrs = 400_000
	}
	if o.Limits == (Limits{}) {
		o.Limits = DefaultLimits
	}
	if o.MetricsRuns == 0 {
		o.MetricsRuns = 32
	}
	if o.Runner == nil {
		o.Runner = system.ExecSpec
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logger == nil {
		o.Logger = slog.New(noopHandler{})
	}
	if o.MemPressure == nil {
		if limit := o.MemSoftLimitBytes; limit > 0 {
			o.MemPressure = func() bool {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc > limit
			}
		} else {
			o.MemPressure = func() bool { return false }
		}
	}
	return o
}

// Run is one submitted simulation and its lifecycle record. Mutable state
// is guarded by the owning Scheduler's mutex; done is closed by endLocked,
// the one transition into a terminal state.
type Run struct {
	ID     string
	Tenant string
	// Spec describes the run; Spec.Hash() is its content address, which
	// keys the result cache.
	Spec runspec.Spec

	seq  uint64
	done chan struct{}
	// canceledWhileQueued marks a run that left state queued without
	// executing, so the queue discards it lazily.
	canceledWhileQueued atomic.Bool

	// specHash is Spec.Hash(), computed once at admission; it keys the
	// single-flight table coalescing concurrent duplicate submissions.
	specHash rcache.Key

	// trace is the run's span timeline (nil when tracing is disabled).
	// The spans.Trace is internally synchronized, so emitters do not take
	// Scheduler.mu.
	trace *spans.Trace

	// Guarded by Scheduler.mu.
	// followers are coalesced duplicate submissions riding this primary
	// run; they settle when it reaches a terminal state.
	followers   []*Run
	state       string
	cached      bool
	errMsg      string
	resultJSON  json.RawMessage
	timeline    []*obs.Snapshot
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	cancel      context.CancelFunc
}

// TraceID returns the run's trace identifier ("" when tracing is off).
func (r *Run) TraceID() string { return r.trace.ID() }

// Scheduler owns the admission queue, the workers reading it, and the run
// table.
type Scheduler struct {
	opts Options

	q *fairQueue

	reg *obs.Registry
	hub *obs.Hub
	met *serveMetrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	seq      atomic.Uint64
	// active counts the runs executing now; workers tracks the worker
	// goroutines, for Drain and Close.
	active  atomic.Int64
	workers sync.WaitGroup

	// execMeanUS is an EWMA of executed (non-cached) run durations in
	// microseconds, stored as float64 bits; it feeds RetryAfterHint.
	execMeanUS atomic.Uint64
	// retrySeq drives the deterministic Retry-After jitter rotation.
	retrySeq atomic.Uint64

	mu       sync.Mutex
	runs     map[string]*Run
	inflight map[rcache.Key]string // spec hash → primary run ID
	// retired holds the terminal runs still in the table, oldest first;
	// retireLocked evicts from its front beyond maxTerminalRuns.
	retired []*Run
}

// maxTerminalRuns bounds how many finished runs the run table keeps.
// Beyond it the oldest terminal runs are evicted (GET /v1/runs/{id} then
// answers 404 not_found); queued and running runs are never evicted, so
// the table's memory stays bounded however many runs a server serves.
// Each kept run holds its sealed trace: the spans it emitted, at most
// TraceCap, as 48 B records plus a table of their distinct strings. At
// the default TraceCap of 8192 that bounds retained span records at
// 4096 × 8192 × 48 B = 1.5 GiB, reached only if every run fills its ring.
const maxTerminalRuns = 4096

// NewScheduler builds and starts a scheduler (its Workers goroutines read
// the admission queue until Drain or Close).
func NewScheduler(opts Options) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		opts:     opts,
		q:        newFairQueue(opts.QueueCap),
		reg:      obs.NewRegistry(),
		hub:      obs.NewHub(opts.MetricsRuns),
		runs:     make(map[string]*Run),
		inflight: make(map[rcache.Key]string),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.met = newServeMetrics(s.reg)
	if opts.Cache != nil {
		s.reg.Register(opts.Cache.Collector())
	}
	s.reg.Register(obs.CollectorFunc(func(sink obs.Sink) {
		sink.Gauge("serve.queue.depth", float64(s.q.depth()))
		sink.Gauge("serve.queue.capacity", float64(s.opts.QueueCap))
		sink.Gauge("serve.queue.tenants", float64(s.q.queuedTenants()))
		sink.Gauge("serve.runs.active", float64(s.active.Load()))
		sink.Gauge("serve.pool.width", float64(s.opts.Workers))
		v := 0.0
		if s.draining.Load() {
			v = 1
		}
		sink.Gauge("serve.draining", v)
	}))
	s.reg.Register(obs.CollectorFunc(func(sink obs.Sink) {
		// Process-level runtime health, sampled at scrape time (collection
		// is pull-based, so the serving path pays nothing). serve.go.*
		// complements /debug/pprof: the gauges tell you *when* to go pull
		// a profile.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sink.Gauge("serve.go.goroutines", float64(runtime.NumGoroutine()))
		sink.Gauge("serve.go.heap_bytes", float64(ms.HeapAlloc))
		sink.Counter("serve.go.gc_pauses", uint64(ms.NumGC))
		// The process-wide trace store (trace.Open), shared by every run.
		ts := trace.StoreStats()
		sink.Counter("serve.tracestore.fills", ts.Fills)
		sink.Counter("serve.tracestore.hits", ts.Hits)
		sink.Counter("serve.tracestore.bypasses", ts.Bypasses)
		sink.Counter("serve.tracestore.evictions", ts.Evictions)
		sink.Counter("serve.tracestore.refills", ts.Refills)
		sink.Gauge("serve.tracestore.traces", float64(ts.Traces))
		sink.Gauge("serve.tracestore.live_bytes", float64(ts.LiveBytes))
		sink.Gauge("serve.tracestore.idle_allowance", float64(ts.IdleAllowance))
		sink.Gauge("serve.tracestore.idle_bytes", float64(ts.IdleBytes))
	}))
	s.workers.Add(opts.Workers)
	for range opts.Workers {
		go s.work()
	}
	return s
}

// Registry returns the scheduler's serve.* metrics registry.
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// Hub returns the bounded store of recent run snapshots rendered on
// /metrics.
func (s *Scheduler) Hub() *obs.Hub { return s.hub }

// Draining reports whether drain has begun (submissions are rejected).
func (s *Scheduler) Draining() bool { return s.draining.Load() }

// Submit admits one run (its spec already mapped through the admission
// limits by the caller), applies memory-pressure load shedding, and
// enqueues. The returned error is an *apiErr (queue_full or draining).
func (s *Scheduler) Submit(tenant string, spec runspec.Spec) (*Run, error) {
	if s.draining.Load() {
		return nil, &apiErr{code: ErrCodeDraining, msg: drainingMsg}
	}
	now := s.opts.Now()
	seq := s.seq.Add(1)
	r := &Run{
		ID:          fmt.Sprintf("r-%06d", seq),
		Tenant:      tenant,
		Spec:        spec,
		seq:         seq,
		done:        make(chan struct{}),
		state:       StateQueued,
		submittedAt: now,
	}
	r.specHash = r.Spec.Hash()
	if s.opts.TraceCap >= 0 {
		r.trace = spans.New(r.ID, s.opts.TraceCap)
	}

	// The admission span starts at the trace's own epoch (the trace is
	// born above) and covers validation plus admission. It is emitted
	// before the run becomes visible to the workers, which may finish
	// the run and seal its trace.
	r.trace.Wall(spans.NameServeAdmit, r.trace.Epoch(), s.opts.Now(),
		spans.Str("tenant", tenant), spans.None)

	s.mu.Lock()
	s.runs[r.ID] = r
	// Single-flight: a submission whose spec is already in flight rides
	// the existing run instead of simulating again. The follower never
	// consumes a queue slot or a worker; when the primary finishes
	// it inherits the result document with "cached": true (the bytes are
	// identical either way — that is the cache layer's contract).
	// Coalescing is the in-flight half of content-addressed caching, so
	// it is enabled exactly when the result cache is: without a cache,
	// identical submissions are expected to simulate independently.
	if s.opts.Cache != nil {
		if pid, ok := s.inflight[r.specHash]; ok {
			if p := s.runs[pid]; p != nil && !isTerminal(p.state) {
				p.followers = append(p.followers, r)
				s.met.runsSubmitted.Inc()
				s.met.runsCoalesced.Inc()
				s.mu.Unlock()
				s.logRun(r, "run coalesced", "primary", pid, "bench", spec.Benchmark, "monitor", spec.Monitor)
				return r, nil
			}
		}
		s.inflight[r.specHash] = r.ID
	}
	s.mu.Unlock()

	// Load shedding: under memory pressure the oldest queued run is
	// evicted (terminally, visibly — state "shed") to keep admission
	// open for fresh work instead of letting the queue's tail grow the
	// heap further. A coalesced submission took no slot and sheds
	// nothing; the victim's own coalesced duplicates are shed with it,
	// so none of them takes the slot the shed freed.
	if s.opts.MemPressure() {
		if old := s.q.shedOldest(); old != nil {
			s.mu.Lock()
			if !isTerminal(old.state) {
				s.endLocked(old, StateShed, "load shed: evicted from the admission queue under memory pressure", "run shed")
			}
			s.mu.Unlock()
		}
	}

	switch s.q.push(r) {
	case pushOK:
	case pushFull:
		s.dropRecord(r)
		s.met.queueRejects.Inc()
		return nil, &apiErr{code: ErrCodeQueueFull, msg: fmt.Sprintf("admission queue full (%d queued)", s.q.depth())}
	case pushClosed:
		s.dropRecord(r)
		return nil, &apiErr{code: ErrCodeDraining, msg: drainingMsg}
	}
	s.met.runsSubmitted.Inc()
	s.logRun(r, "run submitted", "bench", spec.Benchmark, "monitor", spec.Monitor)
	return r, nil
}

// logRun emits one structured run-lifecycle record with the run, tenant,
// and trace_id attributes every line carries.
func (s *Scheduler) logRun(r *Run, msg string, args ...any) {
	s.opts.Logger.Info(msg, append([]any{
		"run", r.ID, "tenant", r.Tenant, "trace_id", r.TraceID(),
	}, args...)...)
}

// dropRecord removes a run that was never admitted.
func (s *Scheduler) dropRecord(r *Run) {
	s.mu.Lock()
	delete(s.runs, r.ID)
	if id, ok := s.inflight[r.specHash]; ok && id == r.ID {
		delete(s.inflight, r.specHash)
	}
	s.mu.Unlock()
}

// work is one worker: it executes queued runs, one at a time, until the
// queue is closed and empty. No run waits anywhere but in the queue, so
// at most Workers runs execute and QueueCap wait.
func (s *Scheduler) work() {
	defer s.workers.Done()
	for {
		r, ok := s.q.pop()
		if !ok {
			return
		}
		s.execute(r, s.opts.Now())
	}
}

// execute runs one admitted run, dequeued at poppedAt, to a terminal
// state.
func (s *Scheduler) execute(r *Run, poppedAt time.Time) {
	s.mu.Lock()
	if r.state != StateQueued {
		// Canceled between pop and execution.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	r.state = StateRunning
	r.startedAt = s.opts.Now()
	r.cancel = cancel
	submittedAt, startedAt := r.submittedAt, r.startedAt
	s.mu.Unlock()
	s.active.Add(1)
	defer s.active.Add(-1)
	defer cancel()
	// A panicking run fails like any other error: finish settles its
	// followers and drops its single-flight claim, so it is not left
	// running forever with duplicate submissions coalescing onto it.
	defer func() {
		if p := recover(); p != nil {
			s.logRun(r, "run panicked", "stack", string(debug.Stack()))
			s.finish(r, nil, fmt.Errorf("run panicked: %v", p), false)
		}
	}()

	// The serving path's wall-clock spans: queue wait (submission to
	// dequeue), scheduling (dequeue to the run marked running), then the
	// execution itself. All land on the same trace the simulator annotates
	// with cycle-domain spans, because the trace rides ctx into the run;
	// the run's spans.* metrics count them, so a served run's result
	// document depends on how many are emitted before it executes.
	r.trace.Wall(spans.NameServeQueueWait, submittedAt, poppedAt, spans.None, spans.None)
	r.trace.Wall(spans.NameServeSchedule, poppedAt, startedAt, spans.None, spans.None)
	s.logRun(r, "run started")

	// Execution goes through the result cache (when configured): a hit
	// decodes the stored outcome, a miss simulates and stores it, and a
	// failed or canceled run is never stored.
	out, err := s.opts.Runner(spans.NewContext(ctx, r.trace), r.Spec, system.WithCache(s.opts.Cache))
	var res *system.Result
	var cached uint64
	if out != nil {
		res = out.Result
		if out.Source != rcache.SourceMiss {
			cached = 1
			r.trace.WallInstant(spans.NameServeCacheHit, s.opts.Now(), spans.None, spans.None)
		}
	}
	r.trace.Wall(spans.NameServeExecute, startedAt, s.opts.Now(), spans.Num("cached", cached), spans.None)
	s.finish(r, res, err, cached == 1)
}

// finish records a run's outcome, flushes its (possibly partial) result
// and timeline, publishes the metrics snapshot to the hub, and wakes
// waiters.
func (s *Scheduler) finish(r *Run, res *system.Result, err error, cached bool) {
	var resultJSON json.RawMessage
	var timeline []*obs.Snapshot
	encodeStart := s.opts.Now()
	if res != nil {
		timeline = res.Timeline
		if view, verr := resultView(res, err != nil); verr == nil {
			if b, merr := json.Marshal(view); merr == nil {
				resultJSON = b
			}
		}
		if res.Metrics != nil && s.opts.MetricsRuns >= 0 {
			s.hub.Publish(r.ID, []obs.Label{
				{Key: "run", Value: r.ID},
				{Key: "tenant", Value: r.Tenant},
				{Key: "bench", Value: r.Spec.Benchmark},
				{Key: "monitor", Value: r.Spec.Monitor},
			}, res.Metrics)
		}
	}
	r.trace.Wall(spans.NameServeEncode, encodeStart, s.opts.Now(), spans.None, spans.None)
	s.persistTrace(r)
	// The run's last span is in: pack its trace here, off s.mu, so the
	// packing never stalls submissions.
	r.trace.Seal()

	s.mu.Lock()
	defer s.mu.Unlock()
	if isTerminal(r.state) {
		return
	}
	r.resultJSON = resultJSON
	r.timeline = timeline
	r.cached = cached
	state, errMsg := StateDone, ""
	switch {
	case err == nil:
		if !cached && !r.startedAt.IsZero() {
			s.recordExecDuration(s.opts.Now().Sub(r.startedAt))
		}
	case errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled):
		state, errMsg = StateCanceled, err.Error()
	default:
		state, errMsg = StateFailed, err.Error()
	}
	args := []any{"cached", cached}
	if errMsg != "" {
		args = append(args, "error", errMsg)
	}
	s.endLocked(r, state, errMsg, "run finished", args...)
}

// drainingMsg is the error of a submission, or a promotion, that meets a
// draining server.
const drainingMsg = "server is draining; submissions are rejected"

// endLocked is the one transition into a terminal state. It records the
// state, the error and the finish time, counts the run under its state,
// wakes its waiters, logs msg once (with the state, then logArgs), settles
// the run's coalesced followers and retires it. Called with s.mu held and
// r not yet terminal.
func (s *Scheduler) endLocked(r *Run, state, errMsg, msg string, logArgs ...any) {
	if r.state == StateQueued {
		r.canceledWhileQueued.Store(true)
	}
	r.state, r.errMsg, r.finishedAt = state, errMsg, s.opts.Now()
	switch state {
	case StateDone:
		s.met.runsCompleted.Inc()
	case StateFailed:
		s.met.runsFailed.Inc()
	case StateCanceled:
		s.met.runsCanceled.Inc()
	case StateShed:
		s.met.runsShed.Inc()
	}
	close(r.done)
	s.logRun(r, msg, append([]any{"state", state}, logArgs...)...)
	s.settleFollowersLocked(r)
	s.retireLocked(r)
}

// settleFollowersLocked resolves a terminal primary's coalesced
// followers and retires its single-flight claim. Called with s.mu held and
// r terminal. A successful primary hands every live follower its result
// document ("cached": true — the bytes are identical to what a cache hit
// would have served). A shed primary sheds its followers too: they are
// queued duplicates of the evicted run. A primary that failed or was
// canceled promotes the first live follower into a real queued run, so
// the duplicate submissions it absorbed are still honored.
func (s *Scheduler) settleFollowersLocked(r *Run) {
	if id, ok := s.inflight[r.specHash]; ok && id == r.ID {
		delete(s.inflight, r.specHash)
	}
	live := slices.DeleteFunc(r.followers, func(f *Run) bool { return isTerminal(f.state) })
	r.followers = nil
	switch {
	case len(live) == 0:
	case r.state == StateDone:
		for _, f := range live {
			f.resultJSON, f.timeline, f.cached = r.resultJSON, r.timeline, true
			s.endLocked(f, StateDone, "", "run finished", "cached", true, "coalesced_with", r.ID)
		}
	case r.state == StateShed:
		for _, f := range live {
			s.endLocked(f, StateShed, r.errMsg, "run shed")
		}
	default:
		promoted := live[0]
		promoted.followers = live[1:]
		s.inflight[r.specHash] = promoted.ID
		switch s.q.push(promoted) {
		case pushOK:
			s.logRun(promoted, "run promoted", "coalesced_with", r.ID)
		case pushFull:
			s.met.queueRejects.Inc()
			const msg = "admission queue full at promotion"
			s.endLocked(promoted, StateFailed, msg, "run finished", "error", msg)
		case pushClosed:
			s.endLocked(promoted, StateCanceled, drainingMsg, "run finished", "error", drainingMsg)
		}
	}
}

// retireLocked files a run that just reached a terminal state (and has
// settled its followers): the oldest terminal runs beyond maxTerminalRuns
// leave the run table. An executed run's trace was sealed in finish; this
// seals the trace of a run that ended without executing (shed, or
// canceled while queued), whose ring holds only its admission span.
// Called with s.mu held.
func (s *Scheduler) retireLocked(r *Run) {
	r.trace.Seal()
	s.retired = append(s.retired, r)
	for len(s.retired) > maxTerminalRuns {
		old := s.retired[0]
		s.retired[0] = nil
		s.retired = s.retired[1:]
		delete(s.runs, old.ID)
	}
}

// recordExecDuration folds one executed (non-cached) run's duration into
// the EWMA that feeds RetryAfterHint (α = 0.2). Lock-free: the mean is
// stored as float64 bits in an atomic and updated by CAS.
func (s *Scheduler) recordExecDuration(d time.Duration) {
	us := float64(d.Microseconds())
	if us < 0 {
		return
	}
	for {
		old := s.execMeanUS.Load()
		next := us
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*us
		}
		if s.execMeanUS.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// RetryAfterHint estimates how long a submitter rejected with queue_full
// should wait before retrying: the EWMA cost of one executed run times
// the queue backlog per worker (with 1s floor when no run has
// executed yet), clamped to [1s, 60s], plus a deterministic jitter so a
// herd of synchronized clients fans back in staggered.
func (s *Scheduler) RetryAfterHint() time.Duration {
	mean := math.Float64frombits(s.execMeanUS.Load())
	if mean <= 0 {
		mean = float64(time.Second / time.Microsecond)
	}
	depth := s.q.depth()
	if depth < 1 {
		depth = 1
	}
	est := time.Duration(mean*float64(depth)/float64(s.opts.Workers)) * time.Microsecond
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est + s.retryJitter()
}

// retryJitter rotates deterministically through {0,1,2} seconds; unlike
// random jitter it keeps responses reproducible in tests and still
// spreads synchronized retry herds.
func (s *Scheduler) retryJitter() time.Duration {
	return time.Duration(s.retrySeq.Add(1)%3) * time.Second
}

// persistTrace writes the run's Chrome trace to Options.TraceDir. Failures
// are logged, never fatal: the trace stays queryable over the API.
func (s *Scheduler) persistTrace(r *Run) {
	if s.opts.TraceDir == "" || r.trace == nil {
		return
	}
	path := filepath.Join(s.opts.TraceDir, r.ID+".trace.json")
	err := os.MkdirAll(s.opts.TraceDir, 0o755)
	var f *os.File
	if err == nil {
		f, err = os.Create(path)
	}
	if err == nil {
		err = spans.WriteChromeJSON(f, r.trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.opts.Logger.Warn("trace persist failed", "run", r.ID, "path", path, "error", err.Error())
	}
}

// Cancel cancels the identified run: a queued run terminates immediately,
// a running run is interrupted at its next scheduler checkpoint (its
// partial result is flushed when it lands), a terminal run is untouched.
// It reports whether the run exists.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs[id]
	if r == nil {
		return false
	}
	switch r.state {
	case StateQueued:
		s.endLocked(r, StateCanceled, "canceled before execution", "run canceled", "while", "queued")
	case StateRunning:
		if r.cancel != nil {
			r.cancel()
		}
	}
	return true
}

// Get returns the run record, nil when unknown.
func (s *Scheduler) Get(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Info snapshots a run's public view.
func (s *Scheduler) Info(r *Run) RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(r)
}

func (s *Scheduler) infoLocked(r *Run) RunInfo {
	info := RunInfo{
		ID:        r.ID,
		Tenant:    r.Tenant,
		State:     r.state,
		Benchmark: r.Spec.Benchmark,
		Monitor:   r.Spec.Monitor,
		Cached:    r.cached,
		Error:     r.errMsg,
		Result:    r.resultJSON,
	}
	info.SubmittedAt = stamp(r.submittedAt)
	info.StartedAt = stamp(r.startedAt)
	info.FinishedAt = stamp(r.finishedAt)
	return info
}

// List returns run views in submission order, optionally filtered by
// state ("" selects all), newest last.
func (s *Scheduler) List(state string) []RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rs []*Run
	for _, r := range s.runs {
		if state == "" || r.state == state {
			rs = append(rs, r)
		}
	}
	slices.SortFunc(rs, func(a, b *Run) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]RunInfo, len(rs))
	for i, r := range rs {
		out[i] = s.infoLocked(r)
	}
	return out
}

// Timeline returns a terminal run's cycle-sampled snapshots. ok=false
// means the run has not reached a terminal state yet.
func (s *Scheduler) Timeline(r *Run) (points []*obs.Snapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !isTerminal(r.state) {
		return nil, false
	}
	return r.timeline, true
}

// Trace returns a terminal run's span trace. ok=false means the run has
// not reached a terminal state yet; a nil trace with ok=true means tracing
// is disabled (Options.TraceCap < 0).
func (s *Scheduler) Trace(r *Run) (tr *spans.Trace, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !isTerminal(r.state) {
		return nil, false
	}
	return r.trace, true
}

// Drain performs a graceful shutdown: admission closes (new submissions
// get 503 draining), queued and in-flight runs are allowed to finish, and
// when ctx expires before they do, every remaining run is canceled — each
// aborts at its next scheduler checkpoint and flushes its partial result.
// Drain returns once all workers have stopped.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.q.close()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately: like Drain with an already-expired
// context.
func (s *Scheduler) Close() {
	s.draining.Store(true)
	s.q.close()
	s.baseCancel()
	s.workers.Wait()
}

func isTerminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled, StateShed:
		return true
	}
	return false
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// noopHandler is the slog.Handler installed when Options.Logger is nil:
// disabled at every level, so the library is silent by default. (The
// stdlib gained slog.DiscardHandler after the Go version this module
// targets.)
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h noopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h noopHandler) WithGroup(string) slog.Handler           { return h }
