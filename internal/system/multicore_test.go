package system

import (
	"context"
	"strings"
	"testing"

	"fade/internal/monitor"
	"fade/internal/runspec"
	"fade/internal/trace"
)

// multiSpec is a short MemLeak run on app application cores served by mon
// dedicated monitor cores, or by SMT monitor threads when smt is set.
func multiSpec(app, mon int, smt bool) runspec.Spec {
	s := defaultSpec("MemLeak")
	s.Instrs = 20_000
	s.AppCores, s.MonCores, s.SMT = app, mon, smt
	return s
}

// TestCMPCoreZeroMatchesTwoCore pins the CMP generalization to the historical
// two-core system: core 0 of a 2+2-core run is wired identically to a
// two-core run (same seed, same private group), so its per-core sub-result
// must equal the two-core aggregate exactly.
func TestCMPCoreZeroMatchesTwoCore(t *testing.T) {
	ref, err := run("astar", multiSpec(1, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := run("astar", multiSpec(2, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Cores) != 2 {
		t.Fatalf("2+2-core run has %d core results", len(cmp.Cores))
	}
	c0 := cmp.Cores[0]
	if c0.Cycles != ref.Cycles {
		t.Errorf("core 0 cycles = %d, two-core = %d", c0.Cycles, ref.Cycles)
	}
	if c0.BaselineCycles != ref.BaselineCycles {
		t.Errorf("core 0 baseline = %d, two-core = %d", c0.BaselineCycles, ref.BaselineCycles)
	}
	if c0.Instrs != ref.Instrs {
		t.Errorf("core 0 instrs = %d, two-core = %d", c0.Instrs, ref.Instrs)
	}
	if c0.MonitoredEvents != ref.MonitoredEvents {
		t.Errorf("core 0 events = %d, two-core = %d", c0.MonitoredEvents, ref.MonitoredEvents)
	}
	if c0.HandlersRun != ref.HandlersRun {
		t.Errorf("core 0 handlers = %d, two-core = %d", c0.HandlersRun, ref.HandlersRun)
	}
	if c0.Slowdown != ref.Slowdown {
		t.Errorf("core 0 slowdown = %v, two-core = %v", c0.Slowdown, ref.Slowdown)
	}
	// Core 1 runs a decorrelated trace: it must differ from core 0.
	if cmp.Cores[1].Seed == c0.Seed {
		t.Error("core 1 did not derive a distinct seed")
	}
	// Aggregate invariants.
	if cmp.Instrs != c0.Instrs+cmp.Cores[1].Instrs {
		t.Errorf("aggregate instrs %d != sum of cores", cmp.Instrs)
	}
	if cmp.Cycles < c0.Cycles || cmp.Cycles < cmp.Cores[1].Cycles {
		t.Errorf("CMP cycles %d below a member core's", cmp.Cycles)
	}
}

func TestTopologyValidation(t *testing.T) {
	bad := []runspec.Spec{
		multiSpec(2, 1, true),  // SMT with dedicated cores
		multiSpec(2, 3, false), // more monitor cores than apps
		multiSpec(2, 0, false), // non-SMT without monitor cores
		multiSpec(-1, 1, false),
	}
	for _, spec := range bad {
		if _, err := run("astar", spec); err == nil {
			t.Errorf("topology %d+%d smt=%v accepted", spec.AppCores, spec.MonCores, spec.SMT)
		}
	}
}

func TestTopologyString(t *testing.T) {
	cases := map[string]runspec.Spec{
		"single-core": multiSpec(1, 0, true),
		"two-core":    multiSpec(1, 1, false),
		"4+4-core":    multiSpec(4, 4, false),
		"2-core-smt":  multiSpec(2, 0, true),
		"4+2-core":    multiSpec(4, 2, false),
	}
	for want, spec := range cases {
		if got, _, _ := Labels(spec); got != want {
			t.Errorf("%d+%d smt=%v labeled %q, want %q", spec.AppCores, spec.MonCores, spec.SMT, got, want)
		}
	}
	if got, _, _ := Labels((runspec.Spec{}).Normalize()); got != "single-core" {
		t.Errorf("zero topology normalizes to %q, want single-core", got)
	}
}

// TestMulticoreSMT exercises N SMT cores, each time-sharing its application
// and monitor threads.
func TestMulticoreSMT(t *testing.T) {
	res, err := run("astar", multiSpec(2, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("%d core results", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.Cycles == 0 || c.HandlersRun == 0 {
			t.Errorf("core %d: cycles=%d handlers=%d", i, c.Cycles, c.HandlersRun)
		}
	}
	if res.Slowdown < 1 {
		t.Errorf("slowdown %v < 1", res.Slowdown)
	}
}

// TestSharedMonitorCore exercises MonCores < AppCores: one monitor core
// fine-grained-multithreads the monitor threads of several groups.
func TestSharedMonitorCore(t *testing.T) {
	res, err := run("astar", multiSpec(2, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	var handlers uint64
	for _, c := range res.Cores {
		handlers += c.HandlersRun
	}
	if handlers == 0 {
		t.Fatal("shared monitor core ran no handlers")
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestRunWithMonitorRejectsMulticore(t *testing.T) {
	mon, err := monitor.New("MemLeak", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := multiSpec(2, 2, false)
	spec.Benchmark, spec.Monitor = "astar", ""
	_, err = ExecSpec(context.Background(), spec, WithMonitor(mon))
	if err == nil || !strings.Contains(err.Error(), "single-app-core") {
		t.Fatalf("err = %v, want single-app-core rejection", err)
	}
}

// TestMulticoreMetricNamespaces checks the per-core metric grammar: a CMP
// run indexes every component namespace (app.0.*, fu.1.*, ...) and drops the
// un-indexed single-core names; a single-core run keeps the legacy names.
func TestMulticoreMetricNamespaces(t *testing.T) {
	multi, err := run("astar", multiSpec(2, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"app.0.instrs", "app.1.instrs", "moncore.1.handlers_run",
		"queue.meq.0.max_occupancy", "fu.1.events.instr",
		"sim.core.0.slowdown", "sim.core.1.cycles", "sim.core.1.baseline_cycles",
	} {
		if _, ok := multi.Metrics.Get(name); !ok {
			t.Errorf("2+2-core metrics missing %s", name)
		}
	}
	for _, name := range []string{"app.instrs", "fu.events.instr", "moncore.handlers_run"} {
		if _, ok := multi.Metrics.Get(name); ok {
			t.Errorf("2+2-core metrics contain un-indexed %s", name)
		}
	}
	single, err := run("astar", multiSpec(1, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"app.instrs", "fu.events.instr", "moncore.handlers_run"} {
		if _, ok := single.Metrics.Get(name); !ok {
			t.Errorf("single-core metrics missing legacy %s", name)
		}
	}
	if _, ok := single.Metrics.Get("app.0.instrs"); ok {
		t.Error("single-core metrics contain indexed app.0.instrs")
	}
}

// TestStoredStreamsMatchPerCoreSeeds: every CMP core draws its own stream
// from the trace store (coreSeed keys it), and each replays its generator
// exactly, hot bit included.
func TestStoredStreamsMatchPerCoreSeeds(t *testing.T) {
	for _, bench := range []string{"astar", "ocean"} {
		prof, _ := trace.Lookup(bench)
		for i := 0; i < 4; i++ {
			seed := coreSeed(3, i)
			src := trace.Open(prof, seed, 20_000)
			want := trace.New(prof, seed, 20_000)
			for n := 0; ; n++ {
				g, okG := src.Next()
				w, okW := want.Next()
				if okG != okW || g != w || src.Hot() != want.Hot() {
					t.Fatalf("%s core %d: record %d differs: got %+v (hot %v), want %+v (hot %v)",
						bench, i, n, g, src.Hot(), w, want.Hot())
				}
				if !okW {
					break
				}
			}
			src.Close()
		}
	}
}
