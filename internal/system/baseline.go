package system

import (
	"context"
	"fmt"

	"fade/internal/cpu"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/trace"
)

// The baseline store memoizes unmonitored runs: every monitored
// configuration of the same (profile, core, seed, length) shares one
// baseline. It is an rcache instance keyed by the canonical KindBaseline
// spec hash, which buys single-flight (when the parallel experiment
// runner fans out N cells sharing a baseline, one worker simulates it and
// the rest wait), failure-not-cached (a canceled or timed-out baseline is
// retried by the next caller with a live context), and LRU bounding (a
// long-lived process sweeping many keys holds a fixed number of entries).

// baselineCacheCap bounds the store. 64 comfortably covers one full
// experiment sweep (19 profiles x a handful of (seed, instrs, warmup)
// variants) while capping resident entries.
const baselineCacheCap = 64

var baselineStore = rcache.NewMem(baselineCacheCap)

// baselineSpec is the canonical identity of the unmonitored baseline of
// a run of s over prof (whose Inject already carries the spec's bug
// injection). MaxCycles and WallClockMS are execution budgets, and a
// completed baseline is the same under any; FastForward is left out
// because a baseline always runs with skip-ahead armed.
func baselineSpec(prof *trace.Profile, s runspec.Spec) runspec.Spec {
	b := runspec.Spec{
		Kind:         runspec.KindBaseline,
		Benchmark:    prof.Name,
		Core:         s.Core,
		Seed:         s.Seed,
		Instrs:       s.Instrs,
		WarmupInstrs: s.WarmupInstrs,
	}
	if prof.Inject != (trace.Inject{}) {
		inj := prof.Inject
		b.Inject = &inj
	}
	return b
}

// ResetBaselineCache empties the baseline store. It is a test hook: cache
// contents never affect results (entries are deterministic functions of
// their keys), only how often the unmonitored simulation re-runs.
func ResetBaselineCache() { baselineStore.Reset() }

// runBaseline returns the unmonitored baseline of a run of the normalized
// spec s over prof: the KindBaseline spec executed through the baseline
// store. ctx bounds the computation but is not part of the key: a canceled
// or timed-out baseline fails without being cached, so a later caller with
// a live context recomputes it.
func runBaseline(ctx context.Context, prof *trace.Profile, s runspec.Spec) (*BaselineOutcome, error) {
	out, err := ExecSpec(ctx, baselineSpec(prof, s), WithCache(baselineStore))
	if err != nil {
		return nil, err
	}
	return out.Baseline, nil
}

// simulateBaseline runs the normalized KindBaseline spec s over prof on
// the sim kernel: one component (the application core at full share),
// terminating at end-of-stream under the spec's cycle cap. Skip-ahead is
// always armed: the outcome equals a cycle-exact run's
// (TestBaselineMatchesCycleExactOracle), and it has no sim.ff.* series
// that would show the mode.
func simulateBaseline(ctx context.Context, prof *trace.Profile, s runspec.Spec) (*BaselineOutcome, error) {
	src := trace.Open(prof, s.Seed, s.Instrs)
	defer src.Close()
	app := cpu.NewAppCore(coreKinds[s.Core], prof, src, nil, nil)
	clock := sim.NewClock()
	clock.Register(&sim.Arbiter{App: app})
	sched := &sim.Scheduler{Clock: clock, MaxCycles: s.CycleCap(), Ctx: ctx,
		Done: func() bool { return app.Done() }, FastForward: true}
	if s.WarmupInstrs > 0 {
		sched.Warmed = func() bool { return app.Instrs() >= s.WarmupInstrs }
	}
	out := sched.Run()
	if !out.Completed {
		return nil, fmt.Errorf("system: baseline for %s aborted: %w", prof.Name, out.Err)
	}
	return &BaselineOutcome{Cycles: out.Cycles, WarmBoundary: out.WarmBoundary}, nil
}
