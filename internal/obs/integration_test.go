package obs_test

// End-to-end tests of the observability layer against real simulation
// runs: the metric name space is well-formed and documented, and metric
// dumps are byte-deterministic for a given seed.

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"fade/internal/obs"
	"fade/internal/runspec"
	"fade/internal/system"
)

func runSnap(t *testing.T, mutate func(*runspec.Spec)) *system.Result {
	t.Helper()
	s := runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", Seed: 1, Instrs: 20_000}
	if mutate != nil {
		mutate(&s)
	}
	out, err := system.ExecSpec(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if res.Metrics == nil {
		t.Fatal("run produced no metrics snapshot")
	}
	return res
}

// TestMetricNamesValidAndDocumented runs both a FADE-accelerated and an
// unaccelerated system and checks that every emitted metric name matches
// the naming grammar and appears in docs/METRICS.md.
func TestMetricNamesValidAndDocumented(t *testing.T) {
	docBytes, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	nameRE := regexp.MustCompile(`^[a-z0-9_.]+$`)

	names := map[string]bool{}
	fadeRun := runSnap(t, nil)
	for _, v := range fadeRun.Metrics.Values {
		names[v.Name] = true
	}
	unacc := runSnap(t, func(s *runspec.Spec) { s.Accel = runspec.AccelNone })
	for _, v := range unacc.Metrics.Values {
		names[v.Name] = true
	}
	if len(names) < 40 {
		t.Fatalf("only %d distinct metrics emitted; expected the full fu/app/moncore/queue/sim name space", len(names))
	}
	for name := range names {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if !strings.Contains(doc, "`"+name+"`") && !strings.Contains(doc, name) {
			t.Errorf("metric %q is not documented in docs/METRICS.md", name)
		}
	}
}

// TestSnapshotDeterminism checks that two runs with identical (benchmark,
// config, seed) produce byte-identical Prometheus expositions and
// timelines.
func TestSnapshotDeterminism(t *testing.T) {
	dump := func() (string, string) {
		res := runSnap(t, func(s *runspec.Spec) { s.TimelineEvery = 5_000 })
		var prom, tl bytes.Buffer
		err := obs.WritePrometheus(&prom, []obs.LabeledSnapshot{
			{Labels: []obs.Label{{Key: "cell", Value: "astar/MemLeak"}}, Snap: res.Metrics},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Timeline) == 0 {
			t.Fatal("TimelineEvery set but no timeline points recorded")
		}
		if err := obs.WriteTimeline(&tl, "astar/MemLeak", res.Timeline); err != nil {
			t.Fatal(err)
		}
		return prom.String(), tl.String()
	}
	prom1, tl1 := dump()
	prom2, tl2 := dump()
	if prom1 != prom2 {
		t.Errorf("same-seed Prometheus dumps differ:\n--- first\n%s\n--- second\n%s", prom1, prom2)
	}
	if tl1 != tl2 {
		t.Error("same-seed timeline dumps differ")
	}
}

// TestSnapshotInternallyConsistent cross-checks the snapshot against the
// run's typed result fields: the registry is the same data, not a second
// bookkeeping path that can drift.
func TestSnapshotInternallyConsistent(t *testing.T) {
	res := runSnap(t, nil)
	snap := res.Metrics

	if got := snap.Counter("sim.cycles"); got != res.Cycles {
		t.Errorf("sim.cycles = %d, want Result.Cycles = %d", got, res.Cycles)
	}
	if got := snap.Counter("app.instrs"); got != res.Instrs {
		t.Errorf("app.instrs = %d, want Result.Instrs = %d", got, res.Instrs)
	}
	slow, ok := snap.Get("sim.slowdown")
	if !ok || slow != res.Slowdown {
		t.Errorf("sim.slowdown = %v (ok=%v), want %v", slow, ok, res.Slowdown)
	}

	// Filter ratio must be recomputable from raw counters within rounding.
	f := res.Filter
	if f == nil {
		t.Fatal("FADE run has no filter stats")
	}
	instr := snap.Counter("fu.events.instr")
	filtered := snap.Counter("fu.filtered.clean_check") + snap.Counter("fu.filtered.redundant_update")
	if instr == 0 {
		t.Fatal("fu.events.instr = 0")
	}
	recomputed := float64(filtered) / float64(instr)
	ratio, _ := snap.Get("fu.filter_ratio")
	if diff := recomputed - ratio; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("fu.filter_ratio = %v but filtered/instr = %v", ratio, recomputed)
	}
}
