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

// coreKinds maps runspec's core names onto the simulator's core models.
// runspec.Validate has already rejected every other name, and Normalize
// has replaced "" with the default.
var coreKinds = map[string]cpu.Kind{
	runspec.CoreInOrder: cpu.InOrder,
	runspec.Core2Way:    cpu.OoO2,
	runspec.Core4Way:    cpu.OoO4,
}

// accelLabels names runspec's acceleration modes as reports print them.
var accelLabels = map[string]string{
	runspec.AccelNone:     "unaccelerated",
	runspec.AccelBlocking: "FADE-blocking",
	runspec.AccelFADE:     "FADE",
}

// Labels returns the display labels of a normalized KindRun spec's
// system, as fadesim's report and fadeserve's result document print
// them: the topology ("single-core", "two-core", "N-core-smt",
// "A+M-core"), the core model ("4-way OoO") and the acceleration mode
// ("FADE", "FADE-blocking", "unaccelerated").
func Labels(s runspec.Spec) (topology, core, accel string) {
	switch {
	case s.AppCores == 1 && s.SMT && s.MonCores == 0:
		topology = "single-core"
	case s.AppCores == 1 && !s.SMT && s.MonCores == 1:
		topology = "two-core"
	case s.SMT:
		topology = fmt.Sprintf("%d-core-smt", s.AppCores)
	default:
		topology = fmt.Sprintf("%d+%d-core", s.AppCores, s.MonCores)
	}
	return topology, coreKinds[s.Core].String(), accelLabels[s.Accel]
}

// profileOf looks up the spec's benchmark profile, with the spec's bug
// injection applied.
func profileOf(s runspec.Spec) (*trace.Profile, error) {
	prof, ok := trace.Lookup(s.Benchmark)
	if !ok {
		return nil, fmt.Errorf("system: unknown benchmark %q", s.Benchmark)
	}
	if s.Inject != nil {
		p := *prof
		p.Inject = *s.Inject
		prof = &p
	}
	return prof, nil
}

// ValidateSpec reports whether s describes a runnable simulation: known
// vocabulary and benchmark, and for a full-system run a valid topology,
// queue and metadata-cache geometry, monitor and fault plan. It is the
// check ExecSpec applies first, for callers (fadeserve admission) that
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
		return validateRun(s)
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
// benchmark: the rate model, then the detailed model 4-way and in-order,
// all over the same generated workload. The rate model's run is the 4-way
// unmonitored baseline, so it comes from (and fills) the baseline store.
func runCoreModelStudy(ctx context.Context, s runspec.Spec) (*CoreModelIPC, error) {
	prof, ok := trace.Lookup(s.Benchmark)
	if !ok {
		return nil, fmt.Errorf("system: unknown benchmark %q", s.Benchmark)
	}
	b, err := runBaseline(ctx, prof, runspec.Spec{Core: runspec.Core4Way, Seed: s.Seed, Instrs: s.Instrs})
	if err != nil {
		return nil, fmt.Errorf("system: rate model for %s: %w", s.Benchmark, err)
	}
	rate := stats.Ratio(s.Instrs, b.Cycles)
	c4, r4, err := runDetailed(ctx, cpu.OoO4, prof, s.Seed, s.Instrs)
	if err != nil {
		return nil, fmt.Errorf("system: detailed model for %s: %w", s.Benchmark, err)
	}
	ci, ri, err := runDetailed(ctx, cpu.InOrder, prof, s.Seed, s.Instrs)
	if err != nil {
		return nil, fmt.Errorf("system: in-order detailed model for %s: %w", s.Benchmark, err)
	}
	return &CoreModelIPC{Rate: rate, Detailed: stats.Ratio(r4, c4), InOrder: stats.Ratio(ri, ci)}, nil
}

// runDetailed runs the dependency-driven core model of the given kind over
// the stored stream.
func runDetailed(ctx context.Context, kind cpu.Kind, prof *trace.Profile, seed, instrs uint64) (cycles, retired uint64, err error) {
	src := trace.Open(prof, seed, instrs)
	defer src.Close()
	return cpu.RunDetailed(ctx, kind, src, seed, instrs*200)
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

// errWallClock is the cause of a context deadline set from a spec's
// WallClockMS.
var errWallClock = errors.New("wall-clock limit exceeded")

// ExecSpec executes a run spec, dispatching on its kind. The spec is
// normalized and validated first, so an incomplete spec executes exactly
// like its explicit-defaults equivalent (and hashes the same). The spec's
// WallClockMS, whatever its kind, becomes a deadline on ctx; a run whose
// ctx is canceled or past that deadline, while it simulates or while it
// waits on another caller's computation of the same cache entry, fails
// with an error wrapping sim.ErrCanceled. A KindRun that aborts (canceled,
// over a limit, an invariant violated) returns its partial Result inside
// the Outcome together with the error, so callers can flush whatever the
// run had counted. A span trace carried by ctx (spans.NewContext) receives
// the run's cycle-domain spans.
func ExecSpec(ctx context.Context, s runspec.Spec, opts ...Option) (*Outcome, error) {
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if s.WallClockMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadlineCause(ctx, time.Now().Add(time.Duration(s.WallClockMS)*time.Millisecond), errWallClock)
		defer cancel()
	}
	if o.cache == nil {
		return exec(ctx, s, o.monitor)
	}
	if o.monitor != nil {
		return nil, errors.New("system: a WithMonitor run has no canonical identity and cannot use WithCache")
	}
	key := s.Hash()
	var partial *Outcome
	b, src, err := o.cache.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
		out, err := exec(ctx, s, nil)
		if err != nil {
			partial = out
			return nil, err
		}
		return EncodeOutcome(out)
	})
	if err != nil {
		if err == ctx.Err() {
			// The wait on another caller's computation ended with ctx.
			err = sim.Canceled(ctx)
		}
		return partial, err
	}
	out, err := DecodeOutcome(b)
	if err != nil && src != rcache.SourceMiss {
		// A hit that no longer decodes (an entry written under an older
		// codec version, or damaged) is stale, not a failure: simulate
		// again and overwrite it.
		if out, err = exec(ctx, s, nil); err != nil {
			return out, err
		}
		if b, err = EncodeOutcome(out); err != nil {
			return nil, err
		}
		o.cache.Put(key, b)
		src = rcache.SourceMiss
		out, err = DecodeOutcome(b)
	}
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
		res, err := runSystem(ctx, s, mon)
		if res == nil {
			return nil, err
		}
		return &Outcome{Result: res}, err
	case runspec.KindStudy:
		qs, err := runQueueStudy(ctx, s)
		if err != nil {
			return nil, err
		}
		return &Outcome{Study: qs}, nil
	case runspec.KindCoreModel:
		cm, err := runCoreModelStudy(ctx, s)
		if err != nil {
			return nil, err
		}
		return &Outcome{CoreModel: cm}, nil
	default: // runspec.KindBaseline
		prof, err := profileOf(s)
		if err != nil {
			return nil, err
		}
		b, err := simulateBaseline(ctx, prof, s)
		if err != nil {
			return nil, err
		}
		return &Outcome{Baseline: b}, nil
	}
}
