package system

import (
	"context"
	"strings"
	"testing"

	"fade/internal/queue"
	"fade/internal/runspec"
	"fade/internal/trace"
)

func smallSpec(mon string) runspec.Spec {
	spec := defaultSpec(mon)
	spec.Instrs = 60_000
	return spec
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := run("nope", smallSpec("MemLeak")); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunUnknownMonitor(t *testing.T) {
	spec := smallSpec("Nope")
	if _, err := run("astar", spec); err == nil {
		t.Fatal("unknown monitor accepted")
	}
}

func TestRunResultConsistency(t *testing.T) {
	r, err := run("astar", smallSpec("MemLeak"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Instrs != 60_000 {
		t.Fatalf("instrs = %d", r.Instrs)
	}
	if r.Cycles == 0 || r.BaselineCycles == 0 {
		t.Fatal("zero cycle counts")
	}
	if r.Slowdown < 1.0 {
		t.Fatalf("monitored run faster than baseline: %v", r.Slowdown)
	}
	if r.MonitoredEvents == 0 || r.HandlersRun == 0 {
		t.Fatal("no monitoring activity")
	}
	if r.Filter == nil {
		t.Fatal("FADE run returned no filter stats")
	}
	total := r.Filter.Filtered() + r.Filter.PartialShort + r.Filter.UnfilteredSent
	if total == 0 {
		t.Fatal("no events processed by the accelerator")
	}
	if sum := r.AppIdleFrac + r.MonIdleFrac + r.BothBusyFrac; sum < 0 || sum > 1.001 {
		t.Fatalf("utilization fractions sum to %v", sum)
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := run("gcc", smallSpec("MemCheck"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run("gcc", smallSpec("MemCheck"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.HandlersRun != b.HandlersRun {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/handlers",
			a.Cycles, a.HandlersRun, b.Cycles, b.HandlersRun)
	}
}

func TestUnacceleratedHasNoFilterStats(t *testing.T) {
	spec := smallSpec("AddrCheck")
	spec.Accel = runspec.AccelNone
	r, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Filter != nil {
		t.Fatal("unaccelerated run produced filter stats")
	}
	if r.HandlersRun != r.MonitoredEvents {
		t.Fatalf("unaccelerated system handled %d of %d events", r.HandlersRun, r.MonitoredEvents)
	}
}

func TestFADEReducesSlowdown(t *testing.T) {
	for _, mon := range []string{"AddrCheck", "MemLeak", "MemCheck"} {
		spec := smallSpec(mon)
		spec.Accel = runspec.AccelNone
		u, err := run("astar", spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Accel = runspec.AccelFADE
		f, err := run("astar", spec)
		if err != nil {
			t.Fatal(err)
		}
		if f.Slowdown >= u.Slowdown {
			t.Errorf("%s: FADE %.2f not faster than unaccelerated %.2f", mon, f.Slowdown, u.Slowdown)
		}
	}
}

func TestNonBlockingBeatsBlocking(t *testing.T) {
	// The benefit concentrates in low-filter-ratio monitors (Fig. 11c).
	// gcc and astar under MemLeak have scale-stable pointer densities;
	// taint ramps too slowly for short-run assertions.
	for _, c := range []struct{ mon, bench string }{
		{"MemLeak", "astar"}, {"MemLeak", "gcc"},
	} {
		spec := smallSpec(c.mon)
		spec.Accel = runspec.AccelBlocking
		b, err := run(c.bench, spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Accel = runspec.AccelFADE
		n, err := run(c.bench, spec)
		if err != nil {
			t.Fatal(err)
		}
		if n.Slowdown >= b.Slowdown {
			t.Errorf("%s/%s: non-blocking %.2f not faster than blocking %.2f",
				c.mon, c.bench, n.Slowdown, b.Slowdown)
		}
		if b.Slowdown/n.Slowdown < 1.2 {
			t.Errorf("%s/%s: non-blocking benefit only %.2fx", c.mon, c.bench, b.Slowdown/n.Slowdown)
		}
	}
}

func TestTwoCoreNotSlowerThanSingle(t *testing.T) {
	for _, mon := range []string{"MemLeak", "AtomCheck"} {
		bench := "astar"
		if mon == "AtomCheck" {
			bench = "streamc"
		}
		spec := smallSpec(mon)
		s, err := run(bench, spec)
		if err != nil {
			t.Fatal(err)
		}
		setCMP(&spec, 1)
		d, err := run(bench, spec)
		if err != nil {
			t.Fatal(err)
		}
		if d.Slowdown > s.Slowdown*1.02 {
			t.Errorf("%s: two-core %.2f slower than single-core %.2f", mon, d.Slowdown, s.Slowdown)
		}
	}
}

func TestDetectionsSurviveAcceleration(t *testing.T) {
	inject := &trace.Inject{LeakFrac: 0.4}
	spec := smallSpec("MemLeak")
	spec.Inject = inject
	spec.Instrs = 100_000

	spec.Accel = runspec.AccelNone
	sw, err := run("omnet", spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Accel = runspec.AccelFADE
	hw, err := run("omnet", spec)
	if err != nil {
		t.Fatal(err)
	}
	swLeaks, hwLeaks := 0, 0
	for _, r := range sw.Reports {
		if r.Kind == "memory-leak" {
			swLeaks++
		}
	}
	for _, r := range hw.Reports {
		if r.Kind == "memory-leak" {
			hwLeaks++
		}
	}
	if swLeaks == 0 {
		t.Fatal("injection produced no leaks")
	}
	if swLeaks != hwLeaks {
		t.Fatalf("acceleration changed detections: sw %d, hw %d", swLeaks, hwLeaks)
	}
}

func TestQueueStudyBasics(t *testing.T) {
	qs, err := study(context.Background(), "astar", "AddrCheck", queue.Unbounded, 1, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if qs.MonitoredIPC <= 0 || qs.AppIPC <= qs.MonitoredIPC {
		t.Fatalf("IPC split wrong: app %.2f monitored %.2f", qs.AppIPC, qs.MonitoredIPC)
	}
	if qs.Slowdown < 1.0 {
		t.Fatalf("ideal-drain slowdown %v below 1", qs.Slowdown)
	}
	// AddrCheck's monitored IPC is far below 1: an infinite queue stays
	// nearly empty (Fig. 3a).
	if qs.MaxOccupancy > 64 {
		t.Fatalf("AddrCheck queue occupancy %d unexpectedly deep", qs.MaxOccupancy)
	}
}

func TestQueueStudyBzipOverflows(t *testing.T) {
	// bzip's monitored IPC exceeds 1.0 under MemLeak: the infinite queue
	// grows without bound (Section 3.2).
	qs, err := study(context.Background(), "bzip", "MemLeak", queue.Unbounded, 1, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if qs.MonitoredIPC <= 1.0 {
		t.Fatalf("bzip monitored IPC %.2f not above 1", qs.MonitoredIPC)
	}
	if qs.MaxOccupancy < 1000 {
		t.Fatalf("bzip queue occupancy %d did not blow up", qs.MaxOccupancy)
	}
}

func TestQueueStudyFiniteQueueSlower(t *testing.T) {
	big, err := study(context.Background(), "gobmk", "MemLeak", 32*1024, 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	small, err := study(context.Background(), "gobmk", "MemLeak", 32, 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if small.Slowdown < big.Slowdown-1e-9 {
		t.Fatalf("32-entry queue faster (%.3f) than 32K (%.3f)", small.Slowdown, big.Slowdown)
	}
}

func TestQueueStudyUnknownInputs(t *testing.T) {
	if _, err := study(context.Background(), "nope", "MemLeak", 32, 1, 1000); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := study(context.Background(), "astar", "Nope", 32, 1, 1000); err == nil {
		t.Fatal("unknown monitor accepted")
	}
}

func TestTopologyAndAccelStrings(t *testing.T) {
	for _, accel := range []string{runspec.AccelNone, runspec.AccelBlocking, runspec.AccelFADE} {
		spec := defaultSpec("MemLeak")
		spec.Accel = accel
		if topo, core, label := Labels(spec); topo == "" || core == "" || label == "" {
			t.Fatalf("%s: empty label in (%q, %q, %q)", accel, topo, core, label)
		}
	}
}

// TestDefaultConfig: the spelled-out paper configuration is exactly what
// Normalize derives from a spec naming only the monitor and seed, and it
// reads as the paper's system.
func TestDefaultConfig(t *testing.T) {
	spec := defaultSpec("MemLeak")
	if got := (runspec.Spec{Monitor: "MemLeak", Seed: 1}).Normalize(); got != spec {
		t.Fatalf("normalized minimal spec = %+v, want %+v", got, spec)
	}
	topo, core, accel := Labels(spec)
	if topo != "single-core" || core != "4-way OoO" || accel != "FADE" {
		t.Fatalf("default spec labels = %q, %q, %q", topo, core, accel)
	}
}

func TestParallelBenchmarkRuns(t *testing.T) {
	spec := smallSpec("AtomCheck")
	r, err := run("water", spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Filter.PartialShort == 0 {
		t.Fatal("AtomCheck produced no partially filtered events")
	}
}

func TestWarmupWindow(t *testing.T) {
	spec := smallSpec("MemLeak")
	full, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.WarmupInstrs = 20_000
	warm, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Slowdown <= 0 {
		t.Fatalf("warmed slowdown = %v", warm.Slowdown)
	}
	// The measured window excludes cold-start effects; the two metrics
	// agree within a modest factor on a steady-state workload.
	ratio := warm.Slowdown / full.Slowdown
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("warmed %.2f vs full %.2f: implausible divergence", warm.Slowdown, full.Slowdown)
	}
}

func TestWarmupBeyondRunIsIgnored(t *testing.T) {
	spec := smallSpec("AddrCheck")
	spec.WarmupInstrs = spec.Instrs * 2 // never reached: falls back to full-run slowdown
	r, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slowdown <= 0 {
		t.Fatalf("slowdown = %v", r.Slowdown)
	}
}

func TestUnboundedEventQueueNoBackpressure(t *testing.T) {
	spec := smallSpec("MemLeak")
	spec.EventQueueCap = queue.Unbounded
	r, err := run("bzip", spec) // bzip overflows any finite queue
	if err != nil {
		t.Fatal(err)
	}
	if r.AppStallCycles != 0 {
		t.Fatalf("unbounded queue produced %d backpressure cycles", r.AppStallCycles)
	}
	if r.EvqMax < 1000 {
		t.Fatalf("bzip occupancy %d did not grow", r.EvqMax)
	}
}

func TestMDCacheSizeMonotonic(t *testing.T) {
	// A bigger MD cache never makes FADE slower on a miss-heavy workload.
	spec := smallSpec("MemCheck")
	spec.MDCacheBytes = 1 << 10
	small, err := run("mcf", spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.MDCacheBytes = 32 << 10
	big, err := run("mcf", spec)
	if err != nil {
		t.Fatal(err)
	}
	if big.Slowdown > small.Slowdown*1.02 {
		t.Fatalf("32KB MD cache (%.2f) slower than 1KB (%.2f)", big.Slowdown, small.Slowdown)
	}
	if big.MDCacheMissRate >= small.MDCacheMissRate {
		t.Fatalf("miss rate did not drop: %.3f -> %.3f", small.MDCacheMissRate, big.MDCacheMissRate)
	}
}
