package system

import (
	"testing"

	"fade/internal/runspec"
	"fade/internal/trace"
)

// TestBaselineSpecIdentity pins what is — and is not — part of a
// baseline's cache identity. The excluded knobs (MaxCycles, FastForward,
// wall-clock budgets) are execution strategy, not run identity: a
// completed baseline is the same under any of them, so they must share a
// cache entry like they did under the old hand-rolled key.
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

func TestBaselineValCodec(t *testing.T) {
	v := baselineVal{cycles: 123_456_789, boundary: 42}
	got, err := decodeBaselineVal(encodeBaselineVal(v))
	if err != nil || got != v {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := decodeBaselineVal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short entry accepted")
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
	sims := baselineSims.Load()
	if n := baselineCacheLen(); n == 0 {
		t.Fatal("baseline store empty after a run")
	}
	if _, err := run("astar", spec); err != nil {
		t.Fatal(err)
	}
	if got := baselineSims.Load(); got != sims {
		t.Fatalf("cached rerun simulated baseline again (%d -> %d)", sims, got)
	}
	ResetBaselineCache()
	if _, err := run("astar", spec); err != nil {
		t.Fatal(err)
	}
	if got := baselineSims.Load(); got != sims+1 {
		t.Fatalf("post-reset run simulated %d baselines, want 1", got-sims)
	}
}
