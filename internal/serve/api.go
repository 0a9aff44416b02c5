package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"fade/internal/fault"
	"fade/internal/runspec"
	"fade/internal/system"
	"fade/internal/trace"
)

// Error codes returned in the error envelope. They are part of the API:
// clients branch on the code, the message is for humans. docs/SERVING.md
// documents each one.
const (
	// ErrCodeBadJSON — the request body is not valid JSON for the schema
	// (syntax error, wrong type, unknown field). HTTP 400.
	ErrCodeBadJSON = "bad_json"
	// ErrCodeInvalidConfig — the submission is well-formed but does not
	// describe a runnable system (unknown benchmark/monitor/accel/core,
	// invalid topology or fault plan). HTTP 400.
	ErrCodeInvalidConfig = "invalid_config"
	// ErrCodeLimitsExceeded — the submission asks for more than the
	// server's admission limits allow (instructions, cycle cap,
	// wall-clock). HTTP 422.
	ErrCodeLimitsExceeded = "limits_exceeded"
	// ErrCodeThrottled — the tenant's token bucket is empty; retry after
	// the duration in the Retry-After header. HTTP 429.
	ErrCodeThrottled = "throttled"
	// ErrCodeQueueFull — the admission queue is at capacity; retry after
	// the duration in the Retry-After header. HTTP 429.
	ErrCodeQueueFull = "queue_full"
	// ErrCodeDraining — the server is shutting down and rejects new
	// submissions while in-flight runs complete. HTTP 503.
	ErrCodeDraining = "draining"
	// ErrCodeNotFound — no run with the requested id. HTTP 404.
	ErrCodeNotFound = "not_found"
	// ErrCodeNotReady — the requested artifact (timeline) is not
	// available yet because the run has not reached a terminal state.
	// HTTP 409.
	ErrCodeNotReady = "not_ready"
	// ErrCodeInternal — unexpected server-side failure. HTTP 500.
	ErrCodeInternal = "internal"
)

// APIError is the error envelope every non-2xx JSON response carries:
// {"error":{"code":"...","message":"..."}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Run states reported in RunInfo.State.
const (
	// StateQueued — admitted, waiting for a worker.
	StateQueued = "queued"
	// StateRunning — executing on a worker.
	StateRunning = "running"
	// StateDone — completed; RunInfo.Result holds the full result.
	StateDone = "done"
	// StateFailed — aborted with an error; a partial result (metrics
	// snapshot with run.aborted=1) is flushed when the simulator produced
	// one.
	StateFailed = "failed"
	// StateCanceled — canceled by the client (DELETE, disconnected wait
	// request) or by shutdown before completing; partial results are
	// flushed like StateFailed.
	StateCanceled = "canceled"
	// StateShed — evicted from the admission queue by load shedding
	// before it ever ran.
	StateShed = "shed"
)

// SubmitRequest is the body of POST /v1/runs. Its fields map one-to-one
// onto runspec.Spec fields (limits onto MaxCycles/WallClockMS, faults onto
// Faults); zero fields select the documented defaults, and unknown fields
// are rejected.
type SubmitRequest struct {
	// Benchmark is the workload profile name (fade.Benchmarks). Required.
	Benchmark string `json:"benchmark"`
	// Monitor is the monitoring tool: AddrCheck, MemCheck, TaintCheck,
	// MemLeak, or AtomCheck. Required.
	Monitor string `json:"monitor"`
	// Accel selects the acceleration mode: "none", "blocking", or "fade"
	// (default "fade").
	Accel string `json:"accel,omitempty"`
	// Core selects the core model: "inorder", "2way", or "4way"
	// (default "4way").
	Core string `json:"core,omitempty"`
	// AppCores > 1 selects a CMP topology with that many application
	// cores; 0 or 1 selects the paper's single dual-threaded SMT core.
	AppCores int `json:"app_cores,omitempty"`
	// MonCores is the number of dedicated monitor cores for a CMP
	// topology (default: one per application core).
	MonCores int `json:"mon_cores,omitempty"`
	// Seed seeds the workload and fault RNG streams (default 1). Results
	// are byte-deterministic per (seed, config) pair.
	Seed uint64 `json:"seed,omitempty"`
	// Instrs is the application instruction budget per core (default:
	// the server's -default-instrs, itself defaulting to 400000).
	Instrs uint64 `json:"instrs,omitempty"`
	// EventQueueCap and UnfilteredCap size the event queues (defaults 32
	// and 16).
	EventQueueCap int `json:"event_queue_cap,omitempty"`
	UnfilteredCap int `json:"unfiltered_cap,omitempty"`
	// TimelineEvery samples the run's metrics registry every N cycles
	// into the timeline served at GET /v1/runs/{id}/timeline. 0 disables
	// sampling.
	TimelineEvery uint64 `json:"timeline_every,omitempty"`
	// FastForward arms the scheduler's quiescence skip-ahead (default
	// true; results are byte-identical either way).
	FastForward *bool `json:"fast_forward,omitempty"`
	// CheckInvariants runs the per-cycle invariant checker (forces
	// cycle-exact execution).
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// Limits bounds the run; both values are clamped against the
	// server's admission limits (a request over them is rejected with
	// limits_exceeded, never silently clamped).
	Limits *LimitsSpec `json:"limits,omitempty"`
	// Faults configures deterministic fault injection.
	Faults *FaultsSpec `json:"faults,omitempty"`
}

// LimitsSpec is the wire form of a spec's MaxCycles and WallClockMS.
type LimitsSpec struct {
	// MaxCycles caps simulated time; hitting it fails the run with a
	// structured error rather than truncating silently.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// WallClockMS caps real time for the run in milliseconds. For wait
	// requests this is the per-request deadline: the run aborts (with
	// partial results flushed) when it elapses.
	WallClockMS int64 `json:"wall_clock_ms,omitempty"`
}

// FaultsSpec is the wire form of a fault plan: the knob vocabulary fadesim's
// -fault-* flags share.
type FaultsSpec = fault.Knobs

// Limits are the server-side admission bounds (flags on cmd/fadeserve).
// A submission exceeding any bound is rejected with limits_exceeded.
type Limits struct {
	// MaxInstrs caps the per-core instruction budget of one run.
	MaxInstrs uint64
	// MaxCycles caps a run's requested cycle cap (and is applied as the
	// default Limits.MaxCycles when the submission sets none... it is
	// only an admission bound; the simulator derives its own default).
	MaxCycles uint64
	// MaxWallClock caps (and, when the submission sets none, becomes)
	// the run's wall-clock budget.
	MaxWallClock time.Duration
	// MaxAppCores caps CMP width.
	MaxAppCores int
	// MaxTimelinePoints bounds timeline memory: instrs-derived cycle cap
	// divided by TimelineEvery must stay under it.
	MaxTimelinePoints uint64
}

// DefaultLimits are the daemon defaults: generous for interactive use,
// small enough that one tenant cannot wedge a worker for long.
var DefaultLimits = Limits{
	MaxInstrs:         5_000_000,
	MaxCycles:         1_000_000_000,
	MaxWallClock:      5 * time.Minute,
	MaxAppCores:       16,
	MaxTimelinePoints: 100_000,
}

// apiErr carries an error code + message through the validation helpers to
// the HTTP layer, which maps codes to status lines.
type apiErr struct {
	code string
	msg  string
}

func (e *apiErr) Error() string { return e.msg }

func errInvalid(format string, args ...any) error {
	return &apiErr{code: ErrCodeInvalidConfig, msg: fmt.Sprintf(format, args...)}
}

func errLimits(format string, args ...any) error {
	return &apiErr{code: ErrCodeLimitsExceeded, msg: fmt.Sprintf(format, args...)}
}

// Spec maps the submission onto the run spec it describes — the
// content-addressed identity the result cache is keyed by — applying the
// server defaults and enforcing the admission limits. The returned error,
// if any, is an *apiErr with code invalid_config or limits_exceeded. Two
// submissions describing the same run produce specs with equal Hash()
// regardless of which defaults were spelled out.
func (r *SubmitRequest) Spec(defaultInstrs uint64, lim Limits) (runspec.Spec, error) {
	var zero runspec.Spec
	if r.Benchmark == "" {
		return zero, errInvalid("missing required field %q", "benchmark")
	}
	if _, ok := trace.Lookup(r.Benchmark); !ok {
		return zero, errInvalid("unknown benchmark %q", r.Benchmark)
	}
	if r.Monitor == "" {
		return zero, errInvalid("missing required field %q", "monitor")
	}
	s := runspec.Spec{
		Benchmark:       r.Benchmark,
		Monitor:         r.Monitor,
		Accel:           r.Accel,
		Core:            r.Core,
		Seed:            r.Seed,
		Instrs:          r.Instrs,
		EventQueueCap:   r.EventQueueCap,
		UnfilteredCap:   r.UnfilteredCap,
		TimelineEvery:   r.TimelineEvery,
		FastForward:     r.FastForward == nil || *r.FastForward,
		CheckInvariants: r.CheckInvariants,
	}
	if err := s.Validate(); err != nil {
		return zero, errInvalid("%v", err)
	}
	switch {
	case r.AppCores < 0:
		return zero, errInvalid("app_cores must be >= 0, got %d", r.AppCores)
	case r.AppCores > 1:
		if lim.MaxAppCores > 0 && r.AppCores > lim.MaxAppCores {
			return zero, errLimits("app_cores %d exceeds the server limit %d", r.AppCores, lim.MaxAppCores)
		}
		s.AppCores, s.MonCores = r.AppCores, r.MonCores
		if s.MonCores == 0 {
			s.MonCores = r.AppCores
		}
	case r.MonCores > 1:
		return zero, errInvalid("mon_cores without app_cores > 1")
	}

	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Instrs == 0 {
		s.Instrs = defaultInstrs
	}
	if lim.MaxInstrs > 0 && s.Instrs > lim.MaxInstrs {
		return zero, errLimits("instrs %d exceeds the server limit %d", s.Instrs, lim.MaxInstrs)
	}
	if r.TimelineEvery > 0 && lim.MaxTimelinePoints > 0 {
		// The derived cycle cap bounds how many points can accumulate.
		cap := runspec.DefaultMaxCycles(s.Instrs)
		if points := cap / r.TimelineEvery; points > lim.MaxTimelinePoints {
			return zero, errLimits("timeline_every %d could record %d points, over the server limit %d",
				r.TimelineEvery, points, lim.MaxTimelinePoints)
		}
	}

	if l := r.Limits; l != nil {
		if lim.MaxCycles > 0 && l.MaxCycles > lim.MaxCycles {
			return zero, errLimits("limits.max_cycles %d exceeds the server limit %d", l.MaxCycles, lim.MaxCycles)
		}
		if l.WallClockMS < 0 {
			return zero, errInvalid("limits.wall_clock_ms must be >= 0, got %d", l.WallClockMS)
		}
		if max := lim.MaxWallClock.Milliseconds(); max > 0 && l.WallClockMS > max {
			return zero, errLimits("limits.wall_clock_ms %d exceeds the server limit %dms", l.WallClockMS, max)
		}
		s.MaxCycles, s.WallClockMS = l.MaxCycles, l.WallClockMS
	}
	if s.WallClockMS == 0 {
		// Every admitted run gets the server's wall-clock ceiling so a
		// pathological configuration cannot hold a worker forever.
		s.WallClockMS = lim.MaxWallClock.Milliseconds()
	}

	if r.Faults != nil {
		plan, err := r.Faults.Plan()
		if err != nil {
			return zero, errInvalid("%v", err)
		}
		s.Faults = plan
	}

	if err := system.ValidateSpec(s); err != nil {
		return zero, errInvalid("%v", err)
	}
	return s, nil
}

// RunInfo is the run envelope returned by POST /v1/runs, GET /v1/runs,
// GET /v1/runs/{id}, and DELETE /v1/runs/{id}.
type RunInfo struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	Benchmark string `json:"benchmark"`
	Monitor   string `json:"monitor"`

	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`

	// Cached reports that the run's result was served from the server's
	// result cache (Options.Cache) instead of being simulated. The result
	// document is byte-identical either way.
	Cached bool `json:"cached,omitempty"`

	// Error is the failure/cancellation reason for terminal non-done
	// states.
	Error string `json:"error,omitempty"`
	// Result is the deterministic result document (ResultView) for
	// terminal runs that produced one — complete for done, partial
	// (aborted=true, run.aborted=1 in metrics) for failed/canceled runs
	// that got far enough to snapshot.
	Result json.RawMessage `json:"result,omitempty"`
}

// ResultView is the result document embedded in RunInfo.Result: the
// stable, deterministic subset of system.Result. For identical (seed,
// config) pairs the marshaled bytes are identical.
type ResultView struct {
	Benchmark string `json:"benchmark"`
	Monitor   string `json:"monitor"`
	Accel     string `json:"accel"`
	Topology  string `json:"topology"`
	Seed      uint64 `json:"seed"`
	Instrs    uint64 `json:"instrs"`

	Aborted bool `json:"aborted,omitempty"`

	Cycles          uint64  `json:"cycles"`
	BaselineCycles  uint64  `json:"baseline_cycles"`
	Slowdown        float64 `json:"slowdown"`
	MonitoredEvents uint64  `json:"monitored_events"`
	AppIPC          float64 `json:"app_ipc"`
	BaselineIPC     float64 `json:"baseline_ipc"`
	FilterRatio     float64 `json:"filter_ratio"`
	EvqMax          int     `json:"evq_max"`
	AppStallCycles  uint64  `json:"app_stall_cycles"`
	HandlersRun     uint64  `json:"handlers_run"`

	Reports []string `json:"reports,omitempty"`

	// Cores holds the per-cell (per application core) sub-results.
	Cores []CoreView `json:"cores"`

	// Metrics is the run's full end-of-run metrics snapshot:
	// {"cycle":N,"metrics":{"app.instrs":...}} (see docs/METRICS.md).
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// TimelinePoints is the number of cycle-sampled snapshots available
	// at GET /v1/runs/{id}/timeline.
	TimelinePoints int `json:"timeline_points"`
}

// CoreView is one application core's slice of the result.
type CoreView struct {
	Core            int     `json:"core"`
	Seed            uint64  `json:"seed"`
	Cycles          uint64  `json:"cycles"`
	BaselineCycles  uint64  `json:"baseline_cycles"`
	Slowdown        float64 `json:"slowdown"`
	Instrs          uint64  `json:"instrs"`
	MonitoredEvents uint64  `json:"monitored_events"`
	EvqMax          int     `json:"evq_max"`
	AppStallCycles  uint64  `json:"app_stall_cycles"`
	HandlersRun     uint64  `json:"handlers_run"`
}

// resultView flattens a system.Result (possibly partial, from an aborted
// run) into its deterministic wire form.
func resultView(res *system.Result, aborted bool) (*ResultView, error) {
	topology, _, accel := system.Labels(res.Config)
	v := &ResultView{
		Benchmark: res.Benchmark,
		Monitor:   res.Config.Monitor,
		Accel:     accel,
		Topology:  topology,
		Seed:      res.Config.Seed,
		Instrs:    res.Instrs,
		Aborted:   aborted,

		Cycles:          res.Cycles,
		BaselineCycles:  res.BaselineCycles,
		Slowdown:        res.Slowdown,
		MonitoredEvents: res.MonitoredEvents,
		AppIPC:          res.AppIPC,
		BaselineIPC:     res.BaselineIPC,
		EvqMax:          res.EvqMax,
		AppStallCycles:  res.AppStallCycles,
		HandlersRun:     res.HandlersRun,
		TimelinePoints:  len(res.Timeline),
	}
	if res.Filter != nil {
		v.FilterRatio = res.Filter.FilterRatio()
	}
	for _, rep := range res.Reports {
		v.Reports = append(v.Reports, rep.String())
	}
	for _, c := range res.Cores {
		v.Cores = append(v.Cores, CoreView{
			Core: c.Core, Seed: c.Seed,
			Cycles: c.Cycles, BaselineCycles: c.BaselineCycles, Slowdown: c.Slowdown,
			Instrs: c.Instrs, MonitoredEvents: c.MonitoredEvents,
			EvqMax: c.EvqMax, AppStallCycles: c.AppStallCycles, HandlersRun: c.HandlersRun,
		})
	}
	if res.Metrics != nil {
		m, err := res.Metrics.MarshalJSON()
		if err != nil {
			return nil, err
		}
		v.Metrics = m
	}
	return v, nil
}

// retryAfter renders a Retry-After header value: whole seconds, rounded
// up, at least 1.
func retryAfter(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}
