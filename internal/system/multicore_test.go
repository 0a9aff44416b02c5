package system

import (
	"context"
	"strings"
	"testing"

	"fade/internal/monitor"
	"fade/internal/trace"
)

func multiConfig(t Topology) Config {
	c := defaultConfig("MemLeak")
	c.Instrs = 20_000
	c.Topology = t
	return c
}

// TestCMPCoreZeroMatchesTwoCore pins the CMP generalization to the historical
// two-core system: core 0 of a cmpTopology(2) run is wired identically to a TwoCore
// run (same seed, same private group), so its per-core sub-result must equal
// the TwoCore aggregate exactly.
func TestCMPCoreZeroMatchesTwoCore(t *testing.T) {
	ref, err := run("astar", multiConfig(TwoCore))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := run("astar", multiConfig(cmpTopology(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Cores) != 2 {
		t.Fatalf("cmpTopology(2) has %d core results", len(cmp.Cores))
	}
	c0 := cmp.Cores[0]
	if c0.Cycles != ref.Cycles {
		t.Errorf("core 0 cycles = %d, TwoCore = %d", c0.Cycles, ref.Cycles)
	}
	if c0.BaselineCycles != ref.BaselineCycles {
		t.Errorf("core 0 baseline = %d, TwoCore = %d", c0.BaselineCycles, ref.BaselineCycles)
	}
	if c0.Instrs != ref.Instrs {
		t.Errorf("core 0 instrs = %d, TwoCore = %d", c0.Instrs, ref.Instrs)
	}
	if c0.MonitoredEvents != ref.MonitoredEvents {
		t.Errorf("core 0 events = %d, TwoCore = %d", c0.MonitoredEvents, ref.MonitoredEvents)
	}
	if c0.HandlersRun != ref.HandlersRun {
		t.Errorf("core 0 handlers = %d, TwoCore = %d", c0.HandlersRun, ref.HandlersRun)
	}
	if c0.Slowdown != ref.Slowdown {
		t.Errorf("core 0 slowdown = %v, TwoCore = %v", c0.Slowdown, ref.Slowdown)
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
	bad := []Topology{
		{AppCores: 2, SMT: true, MonCores: 1}, // SMT with dedicated cores
		{AppCores: 2, MonCores: 3},            // more monitor cores than apps
		{AppCores: 2},                         // non-SMT without monitor cores
		{AppCores: -1, MonCores: 1},           // negative
	}
	for _, topo := range bad {
		if _, err := run("astar", multiConfig(topo)); err == nil {
			t.Errorf("topology %+v accepted", topo)
		}
	}
}

func TestTopologyString(t *testing.T) {
	cases := map[string]Topology{
		"single-core": SingleCoreSMT,
		"two-core":    TwoCore,
		"4+4-core":    cmpTopology(4),
		"2-core-smt":  {AppCores: 2, SMT: true},
		"4+2-core":    {AppCores: 4, MonCores: 2},
	}
	for want, topo := range cases {
		if got := topo.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", topo, got, want)
		}
	}
	if (Topology{}).String() != "single-core" {
		t.Error("zero topology does not normalize to single-core")
	}
	if cmpTopology(1) != TwoCore {
		t.Error("cmpTopology(1) != TwoCore")
	}
}

// TestMulticoreSMT exercises N SMT cores, each time-sharing its application
// and monitor threads.
func TestMulticoreSMT(t *testing.T) {
	res, err := run("astar", multiConfig(Topology{AppCores: 2, SMT: true}))
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
	res, err := run("astar", multiConfig(Topology{AppCores: 2, MonCores: 1}))
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
	_, err = runSystem(context.Background(), "astar", multiConfig(cmpTopology(2)), mon)
	if err == nil || !strings.Contains(err.Error(), "single-app-core") {
		t.Fatalf("err = %v, want single-app-core rejection", err)
	}
}

// TestMulticoreMetricNamespaces checks the per-core metric grammar: a CMP
// run indexes every component namespace (app.0.*, fu.1.*, ...) and drops the
// un-indexed single-core names; a single-core run keeps the legacy names.
func TestMulticoreMetricNamespaces(t *testing.T) {
	multi, err := run("astar", multiConfig(cmpTopology(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"app.0.instrs", "app.1.instrs", "moncore.1.handlers_run",
		"queue.meq.0.max_occupancy", "fu.1.events.instr",
		"sim.core.0.slowdown", "sim.core.1.cycles", "sim.core.1.baseline_cycles",
	} {
		if _, ok := multi.Metrics.Get(name); !ok {
			t.Errorf("cmpTopology(2) metrics missing %s", name)
		}
	}
	for _, name := range []string{"app.instrs", "fu.events.instr", "moncore.handlers_run"} {
		if _, ok := multi.Metrics.Get(name); ok {
			t.Errorf("cmpTopology(2) metrics contain un-indexed %s", name)
		}
	}
	single, err := run("astar", multiConfig(TwoCore))
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
