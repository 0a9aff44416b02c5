package system

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"fade/internal/fault"
	"fade/internal/runspec"
	"fade/internal/spans"
)

// traceRun executes one traced run and returns its exports.
func traceRun(t *testing.T, spec runspec.Spec) (chrome, jsonl []byte, tr *spans.Trace) {
	t.Helper()
	tr = spans.New("golden", 0)
	ctx := spans.NewContext(context.Background(), tr)
	if _, err := runCtx(ctx, "astar", spec); err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if err := spans.WriteChromeJSON(&cb, tr); err != nil {
		t.Fatal(err)
	}
	if err := spans.WriteJSONL(&jb, tr); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes(), tr
}

// TestGoldenTraces pins the cycle-domain trace of representative runs: one
// fault-injected SMT run (stall/throttle/drop/corrupt spans, queue
// episodes) and one fault-free CMP4 run under fast-forward (ff.jump spans,
// per-core tracks). Cycle-domain emission is a pure function of (seed,
// config, flags), so same-seed reruns must export byte-identical files —
// asserted directly here and pinned against the committed goldens.
// Regenerate with `go test ./internal/system -run TestGoldenTraces -update`
// only when a deliberate behavior change moves episode boundaries.
func TestGoldenTraces(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*runspec.Spec)
	}{
		{"trace-smt-faults", func(c *runspec.Spec) {
			c.Instrs = 12_000
			c.Faults = &fault.Plan{
				Seed:         7,
				MonitorStall: &fault.Stall{MeanGap: 2048, MeanDuration: 256},
				MEQPressure:  &fault.Pressure{MeanGap: 4096, MeanDuration: 128, CapFactor: 0.25},
				UFQPressure:  &fault.Pressure{MeanGap: 4096, MeanDuration: 128, CapFactor: 0.5},
				EventDrop:    &fault.Drop{Rate: 0.0005},
				MDCorruption: &fault.Corrupt{MeanGap: 20_000},
			}
		}},
		{"trace-cmp4-ff", func(c *runspec.Spec) {
			c.Instrs = 4_000
			setCMP(c, 4)
			c.FastForward = true
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec := defaultSpec("MemLeak")
			tc.mutate(&spec)
			chrome, jsonl, tr := traceRun(t, spec)
			chrome2, jsonl2, _ := traceRun(t, spec)
			if !bytes.Equal(chrome, chrome2) || !bytes.Equal(jsonl, jsonl2) {
				t.Fatalf("same-seed reruns exported different traces")
			}
			if err := spans.ValidateChromeJSON(chrome); err != nil {
				t.Fatalf("export failed the Chrome validator: %v", err)
			}
			if tr.Len() == 0 {
				t.Fatal("traced run emitted no spans")
			}
			if tr.Dropped() != 0 {
				t.Fatalf("golden run overflowed the default ring (%d dropped); grow the capacity or shrink the run", tr.Dropped())
			}
			for _, s := range tr.Spans() {
				if !spans.Known(s.Name) {
					t.Fatalf("emitted span %q is not a registered spans.Name", s.Name)
				}
				if s.Domain != spans.Cycle {
					t.Fatalf("system run emitted a non-cycle span %q", s.Name)
				}
			}
			for ext, got := range map[string][]byte{".trace.json": chrome, ".trace.jsonl": jsonl} {
				path := filepath.Join("testdata", tc.name+ext)
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trace differs from %s (%d vs %d bytes); an episode boundary moved", path, len(got), len(want))
				}
			}
		})
	}
}

// TestTraceEpisodesFFInvariant: queue full/drain episodes and monitor-
// behind intervals must be identical with fast-forward on or off. The
// trace probe does not pin fast-forward (it is a Sleeper), which is only
// sound if jumps can never skip an episode boundary — queue state is
// frozen across a quiescent span, so boundaries fall on executed cycles.
// Scheduler-track spans (ff jumps, checkpoints) legitimately differ and
// are excluded.
func TestTraceEpisodesFFInvariant(t *testing.T) {
	episodes := func(ff bool) []spans.Span {
		spec := defaultSpec("MemLeak")
		spec.Instrs = 20_000
		setCMP(&spec, 2)
		spec.FastForward = ff
		tr := spans.New("diff", 1<<16)
		if _, err := runCtx(spans.NewContext(context.Background(), tr), "astar", spec); err != nil {
			t.Fatal(err)
		}
		var out []spans.Span
		for _, s := range tr.Spans() {
			switch s.Name {
			case spans.NameMEQFull, spans.NameMEQDrain, spans.NameUFQFull,
				spans.NameUFQDrain, spans.NameMonBehind:
				out = append(out, s)
			}
		}
		return out
	}
	on, off := episodes(true), episodes(false)
	if len(on) == 0 {
		t.Fatal("no episode spans emitted")
	}
	if len(on) != len(off) {
		t.Fatalf("episode count differs: ff-on %d, ff-off %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("episode %d differs: ff-on %+v, ff-off %+v", i, on[i], off[i])
		}
	}
}

// TestTraceZeroWhenAbsent: a run without a trace in its context must not
// emit spans.* metrics (shape-stability, like sim.ff.*) — implicitly
// covered by TestGoldenMetrics — and a traced run must register them.
func TestTraceMetricsRegisteredOnlyWhenTracing(t *testing.T) {
	spec := defaultSpec("MemLeak")
	spec.Instrs = 20_000
	r, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Metrics.Get("spans.emitted"); ok {
		t.Fatal("untraced run exposed spans.* metrics")
	}
	tr := spans.New("t", 0)
	r2, err := runCtx(spans.NewContext(context.Background(), tr), "astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	emitted, ok := r2.Metrics.Get("spans.emitted")
	if !ok || emitted == 0 {
		t.Fatalf("traced run spans.emitted = %v (present=%v), want > 0", emitted, ok)
	}
	if emitted != float64(tr.Emitted()) {
		t.Fatalf("spans.emitted metric %v != trace accounting %d", emitted, tr.Emitted())
	}
}
