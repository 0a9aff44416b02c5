package system

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fade/internal/cpu"
	"fade/internal/monitor"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/stats"
	"fade/internal/trace"
)

// coreKinds and accelModes are the one mapping of runspec's core and accel
// names onto the simulator's enums. runspec.Validate has already rejected
// every other name, and Normalize has replaced "" with the default.
var (
	coreKinds = map[string]cpu.Kind{
		runspec.CoreInOrder: cpu.InOrder,
		runspec.Core2Way:    cpu.OoO2,
		runspec.Core4Way:    cpu.OoO4,
	}
	accelModes = map[string]Accel{
		runspec.AccelNone:     Unaccelerated,
		runspec.AccelBlocking: FADEBlocking,
		runspec.AccelFADE:     FADENonBlocking,
	}
)

// coreName inverts coreKinds (the baseline store keys runs by name).
func coreName(k cpu.Kind) string {
	for name, kind := range coreKinds {
		if kind == k {
			return name
		}
	}
	return runspec.Core4Way
}

// configFromSpec maps a normalized spec onto the simulator's Config. The
// spec's MaxCycles and WallClockMS become RunLimits (MaxCycles as a hard
// cap, WallClockMS as the real-time watchdog); everything else maps field
// for field.
func configFromSpec(s runspec.Spec) Config {
	return Config{
		Core:                 coreKinds[s.Core],
		Topology:             Topology{AppCores: s.AppCores, MonCores: s.MonCores, SMT: s.SMT},
		Accel:                accelModes[s.Accel],
		Monitor:              s.Monitor,
		EventQueueCap:        s.EventQueueCap,
		UnfilteredCap:        s.UnfilteredCap,
		MDCacheBytes:         s.MDCacheBytes,
		BlockingSignalCycles: s.BlockingSignalCycles,
		Seed:                 s.Seed,
		Instrs:               s.Instrs,
		WarmupInstrs:         s.WarmupInstrs,
		Inject:               s.Inject,
		TimelineEvery:        s.TimelineEvery,
		Faults:               s.Faults,
		CheckInvariants:      s.CheckInvariants,
		FastForward:          s.FastForward,
		Limits: RunLimits{
			MaxCycles: s.MaxCycles,
			WallClock: time.Duration(s.WallClockMS) * time.Millisecond,
		},
	}
}

// ValidateSpec reports whether s describes a runnable simulation: known
// vocabulary and benchmark, and for a full-system run a valid topology,
// queue and metadata-cache geometry, monitor, fault plan and limits. It is
// the check ExecSpec applies first, for callers (fadeserve admission) that
// must reject a spec before queueing it.
func ValidateSpec(s runspec.Spec) error {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return err
	}
	if _, ok := trace.Lookup(s.Benchmark); !ok {
		return fmt.Errorf("system: unknown benchmark %q", s.Benchmark)
	}
	if s.Kind == runspec.KindRun {
		return configFromSpec(s).validate()
	}
	return nil
}

// CoreModelIPC is the outcome of one core-model cross-validation cell
// (the ablation-coremodel experiment): the same workload's baseline IPC
// under the calibrated rate-based timing model and the dependency-driven
// detailed model (4-way OoO and in-order).
type CoreModelIPC struct {
	Rate     float64 `json:"rate"`
	Detailed float64 `json:"detailed"`
	InOrder  float64 `json:"inorder"`
}

// runCoreModelStudy runs the core-model cross-validation for one
// benchmark: the rate model on the sim kernel, then the detailed model
// 4-way and in-order, all over the same generated workload.
func runCoreModelStudy(ctx context.Context, bench string, seed, instrs uint64) (*CoreModelIPC, error) {
	prof, ok := trace.Lookup(bench)
	if !ok {
		return nil, fmt.Errorf("system: unknown benchmark %q", bench)
	}
	if instrs == 0 {
		instrs = 400_000
	}
	src := trace.Open(prof, seed, instrs)
	defer src.Close()
	app := cpu.NewAppCore(cpu.OoO4, prof, src, nil, nil)
	clock := sim.NewClock()
	clock.Register(app)
	sched := &sim.Scheduler{Clock: clock, MaxCycles: instrs * 200,
		Done: func(uint64) bool { return app.Done() }}
	if ctx != nil && ctx != context.Background() {
		sched.Ctx = ctx
	}
	out := sched.Run()
	if !out.Completed {
		return nil, fmt.Errorf("system: rate model for %s: %w", bench, out.Err)
	}
	rate := stats.Ratio(app.Instrs(), out.Cycles)
	c4, r4, err := runDetailed(cpu.OoO4, prof, seed, instrs)
	if err != nil {
		return nil, fmt.Errorf("system: detailed model for %s: %w", bench, err)
	}
	ci, ri, err := runDetailed(cpu.InOrder, prof, seed, instrs)
	if err != nil {
		return nil, fmt.Errorf("system: in-order detailed model for %s: %w", bench, err)
	}
	return &CoreModelIPC{Rate: rate, Detailed: stats.Ratio(r4, c4), InOrder: stats.Ratio(ri, ci)}, nil
}

// runDetailed runs the dependency-driven core model of the given kind over
// the stored stream.
func runDetailed(kind cpu.Kind, prof *trace.Profile, seed, instrs uint64) (cycles, retired uint64, err error) {
	src := trace.Open(prof, seed, instrs)
	defer src.Close()
	return cpu.RunDetailed(kind, src, seed, instrs*200)
}

// Outcome is the result of executing one runspec.Spec: exactly one of the
// result fields is set, matching the spec's kind. It is the unit the result
// cache stores.
type Outcome struct {
	// Result is set for KindRun specs.
	Result *Result `json:"result,omitempty"`
	// Study is set for KindStudy specs.
	Study *QueueStudy `json:"study,omitempty"`
	// CoreModel is set for KindCoreModel specs.
	CoreModel *CoreModelIPC `json:"core_model,omitempty"`
	// Baseline is set for KindBaseline specs: the unmonitored cycle count
	// and warm-up boundary cycle.
	Baseline *BaselineOutcome `json:"baseline,omitempty"`

	// Source reports where a WithCache execution found the outcome
	// (rcache.SourceMiss: simulated by this call, or executed uncached).
	// It describes how the simulator ran, not what it simulated, so it is
	// never encoded.
	Source rcache.Source `json:"-"`
}

// BaselineOutcome is the KindBaseline result: the denominator of every
// slowdown.
type BaselineOutcome struct {
	Cycles       uint64 `json:"cycles"`
	WarmBoundary uint64 `json:"warm_boundary"`
}

// Option configures one ExecSpec call.
type Option func(*execOptions)

type execOptions struct {
	monitor monitor.Monitor
	cache   *rcache.Cache
}

// WithMonitor runs a KindRun spec under a caller-supplied monitor instead
// of the built-in one the spec names: the extension point for user-defined
// monitoring tools. The monitor must be fresh (the run mutates its
// non-critical state), and the spec must describe a single application
// core, since each core needs its own monitor instance.
func WithMonitor(m monitor.Monitor) Option {
	return func(o *execOptions) { o.monitor = m }
}

// WithCache executes through the content-addressed result cache c, keyed
// by the spec's hash. A hit decodes the stored outcome instead of
// simulating; a miss simulates, stores, and decodes its own encoding, so
// cached and fresh outcomes are byte-identical. Failed runs are never
// cached. A nil c executes uncached.
func WithCache(c *rcache.Cache) Option {
	return func(o *execOptions) { o.cache = c }
}

// ExecSpec executes a run spec, dispatching on its kind. The spec is
// normalized and validated first, so an incomplete spec executes exactly
// like its explicit-defaults equivalent (and hashes the same). A KindRun
// that aborts (canceled, over a limit, an invariant violated) returns its
// partial Result inside the Outcome together with the error, so callers
// can flush whatever the run had counted. A span trace carried by ctx
// (spans.NewContext) receives the run's cycle-domain spans.
func ExecSpec(ctx context.Context, s runspec.Spec, opts ...Option) (*Outcome, error) {
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.cache == nil {
		return exec(ctx, s, o.monitor)
	}
	if o.monitor != nil {
		return nil, errors.New("system: a WithMonitor run has no canonical identity and cannot use WithCache")
	}
	var partial *Outcome
	b, src, err := o.cache.Do(ctx, s.Hash(), func(ctx context.Context) ([]byte, error) {
		out, err := exec(ctx, s, nil)
		if err != nil {
			partial = out
			return nil, err
		}
		return EncodeOutcome(out)
	})
	if err != nil {
		return partial, err
	}
	out, err := DecodeOutcome(b)
	if err != nil {
		return nil, err
	}
	out.Source = src
	return out, nil
}

// exec simulates one spec (uncached); mon, when non-nil, replaces the
// spec's built-in monitor.
func exec(ctx context.Context, s runspec.Spec, mon monitor.Monitor) (*Outcome, error) {
	s = s.Normalize()
	if err := ValidateSpec(s); err != nil {
		return nil, err
	}
	if mon != nil && s.Kind != runspec.KindRun {
		return nil, fmt.Errorf("system: WithMonitor applies to full-system runs, not %q specs", s.Kind)
	}
	switch s.Kind {
	case runspec.KindRun:
		res, err := runSystem(ctx, s.Benchmark, configFromSpec(s), mon)
		if res == nil {
			return nil, err
		}
		return &Outcome{Result: res}, err
	case runspec.KindStudy:
		qs, err := runQueueStudy(ctx, s.Benchmark, s.Monitor, coreKinds[s.Core], s.EventQueueCap, s.Seed, s.Instrs)
		if err != nil {
			return nil, err
		}
		return &Outcome{Study: qs}, nil
	case runspec.KindCoreModel:
		cm, err := runCoreModelStudy(ctx, s.Benchmark, s.Seed, s.Instrs)
		if err != nil {
			return nil, err
		}
		return &Outcome{CoreModel: cm}, nil
	default: // runspec.KindBaseline
		prof, _ := trace.Lookup(s.Benchmark)
		if s.Inject != nil {
			p := *prof
			p.Inject = *s.Inject
			prof = &p
		}
		cfg := Config{Core: coreKinds[s.Core], Seed: s.Seed, Instrs: s.Instrs,
			MaxCycles: s.MaxCycles, WarmupInstrs: s.WarmupInstrs}
		if cfg.MaxCycles == 0 {
			cfg.MaxCycles = cfg.Instrs * 100
		}
		val, err := simulateBaseline(ctx, prof, cfg, time.Time{})
		if err != nil {
			return nil, err
		}
		return &Outcome{Baseline: &BaselineOutcome{Cycles: val.cycles, WarmBoundary: val.boundary}}, nil
	}
}
