package system

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fade/internal/fault"
	"fade/internal/monitor"
	"fade/internal/runspec"
	"fade/internal/spans"
)

// stripFF removes the sim.ff.* lines from a Prometheus dump. Fast-forward
// accounting is observability of the simulator, not of the simulated
// hardware, so it is the one permitted difference between an exact run and
// a skip-ahead run.
func stripFF(dump []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(dump, []byte("\n")) {
		if bytes.Contains(line, []byte("sim.ff.")) || bytes.Contains(line, []byte("sim_ff_")) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

// TestFastForwardDifferential is the tentpole's correctness gate: for every
// monitor, every topology, with and without fault injection, a fast-forward
// run must be byte-identical (modulo the sim.ff.* namespace) to the
// cycle-exact run it replaces, down to the full Prometheus dump and every
// headline Result field.
func TestFastForwardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full monitor x topology x fault sweep")
	}
	topos := []struct {
		name string
		set  func(*runspec.Spec)
	}{
		{"single-smt", func(*runspec.Spec) {}},
		{"two-core", func(s *runspec.Spec) { setCMP(s, 1) }},
		{"cmp4", func(s *runspec.Spec) { setCMP(s, 4) }},
		// Two application cores per monitor core: the sharedMonCore's
		// quiescence check and round-robin replay.
		{"shared-4on2", func(s *runspec.Spec) { s.AppCores, s.MonCores, s.SMT = 4, 2, false }},
	}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"no-fault", nil},
		{"faults", fullPlan()},
	}
	for _, mon := range monitor.Names() {
		for _, tc := range topos {
			for _, pc := range plans {
				mon, tc, pc := mon, tc, pc
				t.Run(mon+"/"+tc.name+"/"+pc.name, func(t *testing.T) {
					run := func(ff bool) (*Result, []byte) {
						// The baseline cache key ignores FastForward by design
						// (the flag cannot change results); reset it so each
						// arm simulates its own baseline rather than proving
						// only that the cache works.
						ResetBaselineCache()
						spec := defaultSpec(mon)
						tc.set(&spec)
						spec.Instrs = 30_000
						spec.Faults = pc.plan
						spec.FastForward = ff
						r, err := run("astar", spec)
						if err != nil {
							t.Fatalf("ff=%v: %v", ff, err)
						}
						return r, stripFF(promDump(t, r))
					}
					exact, exactDump := run(false)
					fast, fastDump := run(true)
					if !bytes.Equal(exactDump, fastDump) {
						t.Fatalf("metric dumps differ (%d vs %d bytes)", len(exactDump), len(fastDump))
					}
					if exact.Cycles != fast.Cycles || exact.Slowdown != fast.Slowdown ||
						exact.HandlersRun != fast.HandlersRun || exact.Instrs != fast.Instrs ||
						len(exact.Reports) != len(fast.Reports) {
						t.Fatalf("results diverged: exact {cyc %d slow %.4f hnd %d ins %d rep %d}, ff {cyc %d slow %.4f hnd %d ins %d rep %d}",
							exact.Cycles, exact.Slowdown, exact.HandlersRun, exact.Instrs, len(exact.Reports),
							fast.Cycles, fast.Slowdown, fast.HandlersRun, fast.Instrs, len(fast.Reports))
					}
					if pc.plan == nil && fast.Metrics.Counter("sim.ff.jumps") == 0 {
						// Every fault-free topology has quiet spans; a run
						// that never jumps proves nothing about the bulk path.
						t.Fatal("fault-free fast-forward run took no jumps")
					}
					if pc.plan != nil {
						// Fault engines are deliberately not Sleepers: an
						// injected run must pin itself cycle-exact.
						if v, ok := fast.Metrics.Get("sim.ff.pinned.component"); !ok || v != 1 {
							t.Fatalf("fault-injected run not pinned to cycle-exact (pinned.component = %v, %v)", v, ok)
						}
					}
				})
			}
		}
	}
}

// TestGoldenMetricsFastForward re-runs the committed golden configurations
// with skip-ahead enabled: after stripping the sim.ff.* namespace the dumps
// must match the cycle-exact testdata byte for byte. This ties fast-forward
// correctness to the same files that pin tick order for everyone else.
func TestGoldenMetricsFastForward(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*runspec.Spec)
	}{
		{"single-smt-fade", func(c *runspec.Spec) {}},
		{"two-core-fade", func(c *runspec.Spec) { setCMP(c, 1) }},
		{"single-smt-unaccel", func(c *runspec.Spec) { c.Accel = runspec.AccelNone }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ResetBaselineCache()
			spec := defaultSpec("MemLeak")
			spec.FastForward = true
			tc.mutate(&spec)
			r, err := run("astar", spec)
			if err != nil {
				t.Fatal(err)
			}
			got := stripFF(promDump(t, r))
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".prom"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fast-forward dump differs from the cycle-exact golden (%d vs %d bytes)", len(got), len(want))
			}
			ResetBaselineCache()
		})
	}
}

// TestFastForwardInvariantCheckedUnderInjection: requesting fast-forward,
// full fault injection, and the invariant checker together must degrade
// gracefully — the run pins itself cycle-exact (Check has no bulk
// equivalent) and the checker stays clean.
func TestFastForwardInvariantCheckedUnderInjection(t *testing.T) {
	ResetBaselineCache()
	defer ResetBaselineCache()
	spec := defaultSpec("MemLeak")
	spec.Instrs = 30_000
	spec.Faults = fullPlan()
	spec.CheckInvariants = true
	spec.FastForward = true
	r, err := run("astar", spec)
	if err != nil {
		t.Fatalf("invariant checker rejected a fast-forward-requested run: %v", err)
	}
	if v, ok := r.Metrics.Get("sim.ff.pinned.check"); !ok || v != 1 {
		t.Fatalf("checked run not pinned (pinned.check = %v, %v)", v, ok)
	}
	if v, _ := r.Metrics.Get("sim.ff.active"); v != 0 {
		t.Fatalf("pinned run reports sim.ff.active = %v, want 0", v)
	}
	if n := r.Metrics.Counter("sim.ff.jumps"); n != 0 {
		t.Fatalf("pinned run took %d jumps", n)
	}
}

// TestFastForwardDrainInSkippedSpan: a blocking accelerator stalls for the
// completion-signal latency after the last handler, so a group's pipeline
// can drain on the final tick of a skipped span rather than on an exact
// tick. The drain must still be dated at the span's end, or the run never
// completes: every core's cycle count, and the traced monitor-behind
// span that ends at the drain, must match the exact run.
func TestFastForwardDrainInSkippedSpan(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		run := func(ff bool) (*Result, string) {
			ResetBaselineCache()
			spec := defaultSpec("AtomCheck")
			setCMP(&spec, cores)
			spec.Benchmark = "water"
			spec.Accel = runspec.AccelBlocking
			spec.Instrs = 20_000
			spec.FastForward = ff
			tr := spans.New("drain", 0)
			out, err := ExecSpec(spans.NewContext(context.Background(), tr), spec)
			if err != nil {
				t.Fatalf("%d app cores, ff=%v: %v", cores, ff, err)
			}
			var jsonl bytes.Buffer
			if err := spans.WriteJSONL(&jsonl, tr); err != nil {
				t.Fatal(err)
			}
			var behind []string
			for _, line := range strings.Split(jsonl.String(), "\n") {
				if strings.Contains(line, spans.NameMonBehind) {
					behind = append(behind, line)
				}
			}
			return out.Result, strings.Join(behind, "\n")
		}
		exact, exactBehind := run(false)
		fast, fastBehind := run(true)
		if fast.Cycles != exact.Cycles {
			t.Fatalf("%d app cores: ff ran %d cycles, exact %d", cores, fast.Cycles, exact.Cycles)
		}
		for i := range exact.Cores {
			if fast.Cores[i].Cycles != exact.Cores[i].Cycles {
				t.Fatalf("%d app cores: core %d drained at %d under ff, %d exact",
					cores, i, fast.Cores[i].Cycles, exact.Cores[i].Cycles)
			}
		}
		if exactBehind == "" || fastBehind != exactBehind {
			t.Fatalf("%d app cores: monitor-behind spans differ:\nexact %s\nff    %s", cores, exactBehind, fastBehind)
		}
	}
	ResetBaselineCache()
}
