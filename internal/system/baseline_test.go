package system

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"fade/internal/cpu"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/trace"
)

// TestBaselineSpecIdentity pins what is — and is not — part of a
// baseline's cache identity. The excluded knobs (MaxCycles, FastForward,
// wall-clock budgets) are execution strategy, not run identity: a
// completed baseline is the same under any of them, so they share a cache
// entry.
func TestBaselineSpecIdentity(t *testing.T) {
	prof, ok := trace.Lookup("astar")
	if !ok {
		t.Fatal("astar profile missing")
	}
	base := runspec.Spec{Core: runspec.Core4Way, Seed: 1, Instrs: 10_000}
	want := baselineSpec(prof, base).Hash()

	same := base
	same.MaxCycles = 123
	same.WallClockMS = 5_000
	same.FastForward = true
	same.Monitor = "MemLeak"
	same.Accel = runspec.AccelBlocking
	same.EventQueueCap = 64
	if baselineSpec(prof, same).Hash() != want {
		t.Error("monitoring-side/execution knobs changed the baseline identity")
	}

	for name, mut := range map[string]func(*runspec.Spec){
		"core":   func(c *runspec.Spec) { c.Core = runspec.CoreInOrder },
		"seed":   func(c *runspec.Spec) { c.Seed = 2 },
		"instrs": func(c *runspec.Spec) { c.Instrs = 20_000 },
		"warmup": func(c *runspec.Spec) { c.WarmupInstrs = 1_000 },
	} {
		spec := base
		mut(&spec)
		if baselineSpec(prof, spec).Hash() == want {
			t.Errorf("%s change did not change the baseline identity", name)
		}
	}

	injected := *prof
	injected.Inject = trace.Inject{LeakFrac: 0.5}
	if baselineSpec(&injected, base).Hash() == want {
		t.Error("profile injection did not change the baseline identity")
	}
	if s := baselineSpec(prof, base); s.Kind != runspec.KindBaseline {
		t.Errorf("baseline spec kind = %q", s.Kind)
	}
}

// TestResetBaselineCacheForcesResimulation checks the test hook end to end:
// after a reset, the same config re-runs the baseline simulation instead of
// hitting the cache.
func TestResetBaselineCacheForcesResimulation(t *testing.T) {
	ResetBaselineCache()
	defer ResetBaselineCache()

	spec := defaultSpec("MemLeak")
	spec.Instrs = 5_000
	if _, err := run("astar", spec); err != nil {
		t.Fatal(err)
	}
	sims := baselineStore.Stats().Misses
	if n := baselineStore.Len(); n == 0 {
		t.Fatal("baseline store empty after a run")
	}
	if _, err := run("astar", spec); err != nil {
		t.Fatal(err)
	}
	if got := baselineStore.Stats().Misses; got != sims {
		t.Fatalf("cached rerun simulated baseline again (%d -> %d)", sims, got)
	}
	ResetBaselineCache()
	if _, err := run("astar", spec); err != nil {
		t.Fatal(err)
	}
	if got := baselineStore.Stats().Misses; got != sims+1 {
		t.Fatalf("post-reset run simulated %d baselines, want 1", got-sims)
	}
}

// exactBaseline is the oracle for a KindBaseline spec: the application
// core alone on a cycle-exact scheduler, over a freshly generated stream.
func exactBaseline(t *testing.T, s runspec.Spec) BaselineOutcome {
	t.Helper()
	s = s.Normalize()
	prof, err := profileOf(s)
	if err != nil {
		t.Fatal(err)
	}
	app := cpu.NewAppCore(coreKinds[s.Core], prof, trace.New(prof, s.Seed, s.Instrs), nil, nil)
	clock := sim.NewClock()
	clock.Register(&sim.Arbiter{App: app})
	sched := &sim.Scheduler{Clock: clock, MaxCycles: s.CycleCap(), Done: app.Done}
	if s.WarmupInstrs > 0 {
		sched.Warmed = func() bool { return app.Instrs() >= s.WarmupInstrs }
	}
	out := sched.Run()
	if !out.Completed {
		t.Fatalf("oracle for %s aborted: %v", s.Benchmark, out.Err)
	}
	return BaselineOutcome{Cycles: out.Cycles, WarmBoundary: out.WarmBoundary}
}

// TestBaselineMatchesCycleExactOracle: a baseline always runs with
// skip-ahead armed, whatever the monitored run's FastForward says, so its
// cycles and warm-up boundary must equal the cycle-exact oracle's for
// every profile, core model and warm-up, injected profiles included.
func TestBaselineMatchesCycleExactOracle(t *testing.T) {
	var specs []runspec.Spec
	benches := slices.Concat(trace.SerialNames(), trace.ParallelNames(), trace.TaintNames())
	slices.Sort(benches)
	for _, b := range slices.Compact(benches) {
		specs = append(specs, runspec.Spec{Benchmark: b})
	}
	specs = append(specs, runspec.Spec{Benchmark: "astar", Inject: &trace.Inject{LeakFrac: 0.5, WildAccessPer1K: 0.2}})
	for _, base := range specs {
		for _, core := range []string{runspec.CoreInOrder, runspec.Core2Way, runspec.Core4Way} {
			for _, warm := range []uint64{0, 5_000} {
				s := base
				s.Kind, s.Core, s.Seed, s.Instrs, s.WarmupInstrs = runspec.KindBaseline, core, 1, 20_000, warm
				name := fmt.Sprintf("%s/%s/warm%d/inject=%v", s.Benchmark, core, warm, s.Inject != nil)
				out, err := ExecSpec(context.Background(), s)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := exactBaseline(t, s); *out.Baseline != want {
					t.Errorf("%s: ExecSpec %+v, cycle-exact %+v", name, *out.Baseline, want)
				}
				if warm > 0 && out.Baseline.WarmBoundary == 0 {
					t.Errorf("%s: no warm boundary recorded", name)
				}
			}
		}
	}
}

// holdBaselineFlight makes the baseline of a run of s over bench look in
// flight in the store until the returned release is called: a caller that
// needs that baseline waits on the flight. The held flight then fails, so
// the store caches nothing from it.
func holdBaselineFlight(t *testing.T, bench string, s runspec.Spec) (release func()) {
	t.Helper()
	prof, ok := trace.Lookup(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	key := baselineSpec(prof, s.Normalize()).Hash()
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		baselineStore.Do(context.Background(), key, func(context.Context) ([]byte, error) {
			close(started)
			select {
			case <-stop:
			case <-time.After(30 * time.Second):
			}
			return nil, errors.New("held flight released")
		})
	}()
	<-started
	return func() { close(stop); <-done }
}

// TestWallClockExpiresWhileWaitingOnBaseline: a run whose budget runs out
// while it waits on another caller's in-flight baseline fails with
// sim.ErrCanceled naming the budget, without waiting for the flight.
func TestWallClockExpiresWhileWaitingOnBaseline(t *testing.T) {
	spec := defaultSpec("MemLeak")
	spec.Seed, spec.Instrs = 0xB10CED, 20_000
	release := holdBaselineFlight(t, "astar", spec)
	defer release()

	spec.WallClockMS = 20
	t0 := time.Now()
	_, err := run("astar", spec)
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, errWallClock) {
		t.Fatalf("err = %v, want sim.ErrCanceled wrapping the wall-clock cause", err)
	}
	if waited := time.Since(t0); waited > 10*time.Second {
		t.Fatalf("run waited %v on the held baseline", waited)
	}
}

// TestCanceledBaselineNotCached: a baseline stopped by a canceled context
// or by its run's budget leaves nothing in the store.
func TestCanceledBaselineNotCached(t *testing.T) {
	prof, _ := trace.Lookup("mcf")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx    context.Context
		wallMS int64
	}{
		"canceled-ctx": {canceled, 0},
		"wall-clock":   {context.Background(), 1},
	} {
		spec := defaultSpec("MemLeak")
		spec.Benchmark, spec.Seed, spec.WallClockMS = "mcf", 0xCA7CE1, tc.wallMS
		misses, entries := baselineStore.Stats().Misses, baselineStore.Len()
		if _, err := ExecSpec(tc.ctx, spec); !errors.Is(err, sim.ErrCanceled) {
			t.Fatalf("%s: err = %v, want sim.ErrCanceled", name, err)
		}
		if _, _, ok := baselineStore.Get(baselineSpec(prof, spec.Normalize()).Hash()); ok {
			t.Errorf("%s: the store holds the canceled baseline", name)
		}
		if got := baselineStore.Stats().Misses; got != misses || baselineStore.Len() != entries {
			t.Errorf("%s: store went from %d misses, %d entries to %d, %d", name, misses, entries, got, baselineStore.Len())
		}
	}
}

// TestExecSpecCancelAndWallClockEveryKind: every spec kind stops with
// sim.ErrCanceled under an already-canceled context and under a 1 ms
// wall-clock budget. The shared baselines are warmed first, so each kind
// must stop in its own simulation, not only in a baseline's.
func TestExecSpecCancelAndWallClockEveryKind(t *testing.T) {
	const instrs = 400_000
	monitored := defaultSpec("MemLeak")
	monitored.Benchmark, monitored.Seed, monitored.Instrs = "astar", 0xEC5, instrs
	specs := map[string]runspec.Spec{
		"run":       monitored,
		"study":     {Kind: runspec.KindStudy, Benchmark: "astar", Monitor: "MemLeak", EventQueueCap: 32, Seed: 0xEC5, Instrs: instrs},
		"baseline":  {Kind: runspec.KindBaseline, Benchmark: "astar", Seed: 0xEC5, Instrs: instrs},
		"coremodel": {Kind: runspec.KindCoreModel, Benchmark: "astar", Seed: 0xEC5, Instrs: instrs},
	}
	// Run, study and core model all divide by this 4-way baseline.
	prof, _ := trace.Lookup("astar")
	if _, err := runBaseline(context.Background(), prof, runspec.Spec{Core: runspec.Core4Way, Seed: 0xEC5, Instrs: instrs}); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for kind, s := range specs {
		for _, budget := range []string{"canceled-ctx", "wall-clock"} {
			ctx, spec := canceled, s
			if budget == "wall-clock" {
				ctx, spec.WallClockMS = context.Background(), 1
			}
			_, err := ExecSpec(ctx, spec)
			if !errors.Is(err, sim.ErrCanceled) {
				t.Errorf("%s under %s: err = %v, want sim.ErrCanceled", kind, budget, err)
			}
			if budget == "wall-clock" && !errors.Is(err, errWallClock) {
				t.Errorf("%s under %s: err = %v does not name the wall-clock budget", kind, budget, err)
			}
		}
	}
}
