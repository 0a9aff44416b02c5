package system

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fade/internal/fault"
	"fade/internal/obs"
	"fade/internal/queue"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/trace"
)

// fullPlan exercises every injector at once.
func fullPlan() *fault.Plan {
	return &fault.Plan{
		MonitorStall: &fault.Stall{MeanGap: 2048, MeanDuration: 256},
		MEQPressure:  &fault.Pressure{MeanGap: 4096, MeanDuration: 128, CapFactor: 0.25},
		UFQPressure:  &fault.Pressure{MeanGap: 4096, MeanDuration: 128, CapFactor: 0.5},
		EventDrop:    &fault.Drop{Rate: 0.0005},
		MDCorruption: &fault.Corrupt{MeanGap: 20_000},
	}
}

func promDump(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, []obs.LabeledSnapshot{{Snap: r.Metrics}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenMetricsUnderFaults pins the exact Prometheus dump of a
// fault-injected run: the same (config, seed, Plan) must reproduce the same
// perturbation schedule byte for byte, run after run and commit after
// commit. Regenerate with -update only when an intended change to the fault
// model or metric naming lands.
func TestGoldenMetricsUnderFaults(t *testing.T) {
	run := func() []byte {
		spec := defaultSpec("MemLeak")
		spec.Instrs = 60_000
		spec.Faults = fullPlan()
		r, err := run("astar", spec)
		if err != nil {
			t.Fatal(err)
		}
		return promDump(t, r)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identically-seeded fault-injected runs produced different metric dumps")
	}
	path := filepath.Join("testdata", "single-smt-fade-faults.prom")
	if *updateGolden {
		if err := os.WriteFile(path, a, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("fault-injected metrics dump differs from %s (%d vs %d bytes)", path, len(a), len(want))
	}
}

// TestFaultFreeRunUnchangedByPlumbing: a run with a nil plan and a run with
// an empty plan produce identical dumps — the fault machinery is invisible
// until a fault is actually configured. (The pre-existing golden tests pin
// the absolute bytes; this pins the nil/empty equivalence.)
func TestFaultFreeRunUnchangedByPlumbing(t *testing.T) {
	run := func(plan *fault.Plan) []byte {
		spec := defaultSpec("MemLeak")
		spec.Instrs = 40_000
		spec.Faults = plan
		r, err := run("astar", spec)
		if err != nil {
			t.Fatal(err)
		}
		return promDump(t, r)
	}
	if !bytes.Equal(run(nil), run(&fault.Plan{Seed: 99})) {
		t.Fatal("an empty fault plan changed the metrics dump")
	}
}

// TestCancelReturnsPartialMetrics: a context canceled before the monitored
// phase stops the run within one checkpoint interval, returns ErrCanceled,
// and still hands back the partial metrics snapshot with run.aborted set.
func TestCancelReturnsPartialMetrics(t *testing.T) {
	spec := defaultSpec("MemLeak")
	spec.Instrs = 40_000
	spec.Seed = 0xCA9CE1
	// Warm the baseline cache so the canceled run reaches the monitored
	// phase (the baseline key ignores the context).
	if _, err := run("astar", spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runCtx(ctx, "astar", spec)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Metrics == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Cycles > sim.DefaultCheckpointInterval {
		t.Fatalf("canceled run executed %d cycles, want within one %d-cycle checkpoint", res.Cycles, sim.DefaultCheckpointInterval)
	}
	found := false
	for _, v := range res.Metrics.Values {
		if v.Name == "run.aborted" && v.Num() == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("partial snapshot does not carry run.aborted = 1")
	}
}

// TestCycleCapReturnsStructuredError is the regression test for the silent
// cycle-cap truncation: a run that hits its cap must fail with
// ErrCycleCapExceeded (carrying partial state), never return a truncated
// result as success.
func TestCycleCapReturnsStructuredError(t *testing.T) {
	spec := defaultSpec("MemLeak")
	spec.Instrs = 40_000
	spec.Seed = 0xCA9CE2
	if _, err := run("astar", spec); err != nil { // warm the baseline cache
		t.Fatal(err)
	}
	spec.MaxCycles = 2_000
	res, err := run("astar", spec)
	if !errors.Is(err, sim.ErrCycleCapExceeded) {
		t.Fatalf("err = %v, want ErrCycleCapExceeded", err)
	}
	if res == nil || res.Cycles != 2_000 {
		t.Fatalf("capped run result = %+v, want partial result at 2000 cycles", res)
	}
}

// TestInvariantCheckerCleanUnderFaults: the backpressure contract holds for
// every monitor with every injector active — stalls and pressure may slow
// the system arbitrarily, but no queue overflows, no event goes
// unaccounted, and no full queue retires a monitored op.
func TestInvariantCheckerCleanUnderFaults(t *testing.T) {
	benches := map[string]string{
		"AddrCheck": "astar", "MemCheck": "mcf", "MemLeak": "astar",
		"TaintCheck": trace.TaintNames()[0], "AtomCheck": "ocean",
	}
	for mon, bench := range benches {
		mon, bench := mon, bench
		t.Run(mon, func(t *testing.T) {
			t.Parallel()
			spec := defaultSpec(mon)
			spec.Instrs = 25_000
			spec.Faults = fullPlan()
			spec.CheckInvariants = true
			if _, err := run(bench, spec); err != nil {
				t.Fatalf("%s/%s under faults: %v", mon, bench, err)
			}
		})
	}
}

// TestInvariantCheckerCleanAcrossModes: the checker also passes on the
// fault-free configurations it will guard in CI (-check), in every
// acceleration mode and on a CMP.
func TestInvariantCheckerCleanAcrossModes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*runspec.Spec)
	}{
		{"unaccelerated", func(c *runspec.Spec) { c.Accel = runspec.AccelNone }},
		{"blocking", func(c *runspec.Spec) { c.Accel = runspec.AccelBlocking }},
		{"nonblocking", func(c *runspec.Spec) {}},
		{"two-core", func(c *runspec.Spec) { setCMP(c, 1) }},
		{"cmp4-faults", func(c *runspec.Spec) { setCMP(c, 4); c.Faults = fullPlan() }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := defaultSpec("MemLeak")
			spec.Instrs = 25_000
			spec.CheckInvariants = true
			tc.mutate(&spec)
			if _, err := run("astar", spec); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInvalidConfigsErrorNeverPanic fuzzes the public surface with the
// invalid specs users actually produce; every one must be rejected by
// admission (ValidateSpec) and by the executor, as an error naming the
// problem — a panic fails the test harness.
func TestInvalidConfigsErrorNeverPanic(t *testing.T) {
	cases := []struct {
		name   string
		bench  string
		mutate func(*runspec.Spec)
	}{
		{"negative-evq", "astar", func(c *runspec.Spec) { c.EventQueueCap = -1 }},
		{"negative-ufq", "astar", func(c *runspec.Spec) { c.UnfilteredCap = -4 }},
		{"negative-mdcache", "astar", func(c *runspec.Spec) { c.MDCacheBytes = -8 }},
		{"non-power-of-two-mdcache", "astar", func(c *runspec.Spec) { c.MDCacheBytes = 3000 }},
		{"tiny-mdcache", "astar", func(c *runspec.Spec) { c.MDCacheBytes = 1 }},
		{"bad-signal-latency", "astar", func(c *runspec.Spec) { c.BlockingSignalCycles = -2 }},
		{"negative-app-cores", "astar", func(c *runspec.Spec) { c.AppCores, c.MonCores, c.SMT = -1, 1, false }},
		{"zero-mon-cores", "astar", func(c *runspec.Spec) { c.AppCores, c.MonCores, c.SMT = 2, 0, false }},
		{"smt-multicore", "astar", func(c *runspec.Spec) { c.AppCores, c.MonCores, c.SMT = 2, 2, true }},
		{"unknown-monitor", "astar", func(c *runspec.Spec) { c.Monitor = "Bogus" }},
		{"unknown-benchmark", "no-such-bench", func(c *runspec.Spec) {}},
		{"bad-fault-capfactor", "astar", func(c *runspec.Spec) {
			c.Faults = &fault.Plan{MEQPressure: &fault.Pressure{MeanGap: 10, MeanDuration: 10, CapFactor: 2}}
		}},
		{"bad-fault-drop-rate", "astar", func(c *runspec.Spec) {
			c.Faults = &fault.Plan{EventDrop: &fault.Drop{Rate: -1}}
		}},
		{"bad-fault-stall-gap", "astar", func(c *runspec.Spec) {
			c.Faults = &fault.Plan{MonitorStall: &fault.Stall{MeanGap: 0, MeanDuration: 5}}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec := defaultSpec("MemLeak")
			spec.Instrs = 5_000
			tc.mutate(&spec)
			spec.Benchmark = tc.bench
			if err := ValidateSpec(spec); err == nil {
				t.Fatalf("ValidateSpec accepted invalid spec %s", tc.name)
			}
			if _, err := run(tc.bench, spec); err == nil {
				t.Fatalf("ExecSpec accepted invalid spec %s", tc.name)
			}
		})
	}
}

// TestAtomCheckThreadCapEnforced: AtomCheck's lockset tables are sized for
// MaxAtomThreads hardware threads; a wider workload must be rejected with an
// error, not a later index panic.
func TestAtomCheckThreadCapEnforced(t *testing.T) {
	if _, err := study(context.Background(), "ocean", "AtomCheck", 32, 1, 5_000); err != nil {
		t.Fatalf("4-thread AtomCheck rejected: %v", err)
	}
	spec := defaultSpec("AtomCheck")
	spec.Instrs = 5_000
	if _, err := run("astar", spec); err != nil {
		t.Fatalf("single-threaded AtomCheck rejected: %v", err)
	}
}

// TestQueueStudyRejectsBadCap is the regression test for the queue-study
// panic on non-positive capacities.
func TestQueueStudyRejectsBadCap(t *testing.T) {
	for _, cap := range []int{0, -3} {
		_, err := study(context.Background(), "astar", "MemLeak", cap, 1, 5_000)
		if err == nil || !strings.Contains(err.Error(), "queue") {
			t.Fatalf("queueCap %d: err = %v, want queue capacity error", cap, err)
		}
	}
}

// TestQueueStudyCancel: the queue study honors its context too.
func TestQueueStudyCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := study(ctx, "astar", "MemLeak", 32, 0xCA9CE3, 50_000)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestValidateAcceptsDefaults: every monitor's default spec — and the
// zero-cap convention (0 = paper default) — passes validation.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, mon := range []string{"AddrCheck", "MemCheck", "TaintCheck", "MemLeak", "AtomCheck"} {
		spec := defaultSpec(mon)
		spec.Benchmark = "astar"
		if err := ValidateSpec(spec); err != nil {
			t.Errorf("defaultSpec(%s) invalid: %v", mon, err)
		}
	}
	spec := defaultSpec("MemLeak")
	spec.Benchmark = "astar"
	spec.EventQueueCap, spec.UnfilteredCap, spec.MDCacheBytes = 0, 0, 0
	if err := ValidateSpec(spec); err != nil {
		t.Errorf("zero-defaults spec invalid: %v", err)
	}
	spec.EventQueueCap = queue.Unbounded
	if err := ValidateSpec(spec); err != nil {
		t.Errorf("unbounded event queue invalid: %v", err)
	}
}

// TestFaultSweepSeverityMonotonic: heavier stall injection cannot speed the
// system up — slowdown is non-decreasing in severity for a fixed workload.
func TestFaultSweepSeverityMonotonic(t *testing.T) {
	var prev float64
	for _, level := range fault.StallSeverities() {
		plan, ok := fault.StallSeverity(level)
		if !ok {
			t.Fatalf("unknown severity %q", level)
		}
		spec := defaultSpec("MemLeak")
		spec.Instrs = 40_000
		spec.Faults = plan
		spec.CheckInvariants = true
		r, err := run("astar", spec)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if r.Slowdown < prev*0.98 { // 2% tolerance for burst-schedule noise
			t.Fatalf("severity %s slowdown %.3f below previous level's %.3f", level, r.Slowdown, prev)
		}
		prev = r.Slowdown
	}
}

// TestDropProbeDetected: dropped events are invisible to the producer but
// must be fully accounted for — the MEQ drop counter and the engine agree,
// and the run completes (the loss is detected, not fatal).
func TestDropProbeDetected(t *testing.T) {
	spec := defaultSpec("MemLeak")
	spec.Instrs = 40_000
	spec.Faults = &fault.Plan{EventDrop: &fault.Drop{Rate: 0.01}}
	spec.CheckInvariants = true
	r, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	var engineDrops, queueDrops float64 = -1, -1
	for _, v := range r.Metrics.Values {
		switch v.Name {
		case "fault.events_dropped":
			engineDrops = v.Num()
		case "queue.meq.drops":
			queueDrops = v.Num()
		}
	}
	if engineDrops <= 0 {
		t.Fatalf("fault.events_dropped = %v, want > 0 at a 1%% drop rate", engineDrops)
	}
	if engineDrops != queueDrops {
		t.Fatalf("engine counted %v drops, queue counted %v; the loss must be fully accounted", engineDrops, queueDrops)
	}
}
