package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fade/internal/runspec"
	"fade/internal/spans"
	"fade/internal/system"
	"fade/internal/trace"
)

// tiny returns options scaled down for test speed; the calibration tests in
// internal/system check the numbers at full scale.
func tiny() Options { return Options{Instrs: 25_000, Seed: 1} }

func TestByIDUnknownRejected(t *testing.T) {
	if _, err := ByID("nope", tiny()); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	if len(IDs()) != 21 {
		t.Fatalf("experiment count = %d", len(IDs()))
	}
	// The cheap experiments are runnable through ByID.
	tbl, err := ByID("synth", tiny())
	if err != nil || tbl.ID != "synth" {
		t.Fatalf("ByID(synth) = %v, %v", tbl, err)
	}
}

func TestBenchesFor(t *testing.T) {
	if len(BenchesFor("AddrCheck")) != 8 {
		t.Fatal("AddrCheck suite size")
	}
	if len(BenchesFor("AtomCheck")) != 5 {
		t.Fatal("AtomCheck suite size")
	}
	if len(BenchesFor("TaintCheck")) != 4 {
		t.Fatal("TaintCheck suite size")
	}
	if len(Monitors()) != 5 {
		t.Fatal("monitor list size")
	}
}

func expectTable(t *testing.T, tbl *Table, err error, minRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < minRows {
		t.Fatalf("%s: %d rows, want >= %d", tbl.ID, len(tbl.Rows), minRows)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) && tbl.ID != "fig4c" {
			t.Fatalf("%s row %d has %d cells, header has %d", tbl.ID, i, len(row), len(tbl.Header))
		}
	}
	if s := tbl.String(); !strings.Contains(s, tbl.ID) {
		t.Fatalf("%s: String() missing id", tbl.ID)
	}
}

func TestFig2a(t *testing.T) {
	tbl, err := ByID("fig2a", tiny())
	expectTable(t, tbl, err, 5)
}

func TestFig2bc(t *testing.T) {
	tbl, err := ByID("fig2bc", tiny())
	expectTable(t, tbl, err, 9) // 8 benchmarks + mean
}

func TestFig3ab(t *testing.T) {
	tbl, err := ByID("fig3ab", tiny())
	expectTable(t, tbl, err, 16) // 2 monitors x 8 benchmarks
}

func TestFig3c(t *testing.T) {
	tbl, err := ByID("fig3c", tiny())
	expectTable(t, tbl, err, 9)
}

func TestFig4a(t *testing.T) {
	tbl, err := ByID("fig4a", tiny())
	expectTable(t, tbl, err, 5)
}

func TestFig4b(t *testing.T) {
	tbl, err := ByID("fig4b", tiny())
	expectTable(t, tbl, err, 8)
}

func TestFig4c(t *testing.T) {
	tbl, err := ByID("fig4c", tiny())
	expectTable(t, tbl, err, 5)
}

func TestTable2(t *testing.T) {
	tbl, err := ByID("table2", tiny())
	expectTable(t, tbl, err, 5)
	// Every monitor's measured ratio should parse as a percentage > 50%.
	for _, row := range tbl.Rows {
		if !strings.HasSuffix(row[1], "%") {
			t.Fatalf("ratio cell %q not a percentage", row[1])
		}
	}
}

func TestFig9(t *testing.T) {
	tbl, err := ByID("fig9", tiny())
	// 8+8+5 detailed rows + 5 means + overall.
	expectTable(t, tbl, err, 25)
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "overall" {
		t.Fatalf("last row %v", last)
	}
}

func TestFig11a(t *testing.T) {
	tbl, err := ByID("fig11a", tiny())
	expectTable(t, tbl, err, 5)
}

func TestFig11b(t *testing.T) {
	tbl, err := ByID("fig11b", tiny())
	expectTable(t, tbl, err, 5)
}

func TestFig11c(t *testing.T) {
	tbl, err := ByID("fig11c", tiny())
	expectTable(t, tbl, err, 5)
}

func TestSynthTable(t *testing.T) {
	tbl, err := ByID("synth", Options{})
	expectTable(t, tbl, err, 10)
}

// Fig10 runs 5 monitors x suites x 3 cores x 2 systems: the heaviest
// experiment; smoke-test it at reduced scale but skip in -short.
func TestFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 is the heaviest experiment")
	}
	tbl, err := ByID("fig10", Options{Instrs: 12_000, Seed: 1})
	expectTable(t, tbl, err, 5)
}

func TestAblationExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are slow")
	}
	for _, id := range []string{
		"ablation-mdcache", "ablation-evq", "ablation-ufq", "ablation-signal", "ablation-coremodel",
	} {
		tbl, err := ByID(id, Options{Instrs: 15_000, Seed: 1})
		expectTable(t, tbl, err, 2)
	}
}

// TestMulticoreScaling smoke-tests the CMP sweep and checks the acceptance
// anchor: the 1-core cell of the FADE row equals a direct two-core run.
func TestMulticoreScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore sweep is heavy")
	}
	o := Options{Instrs: 12_000, Seed: 1}
	tbl, err := ByID("multicore-scaling", o)
	expectTable(t, tbl, err, 15) // 5 monitors x 3 modes
	s := o.spec(BenchesFor("MemLeak")[0], "MemLeak")
	setTopology(&s, 1, 1)
	out, err := system.ExecSpec(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Result
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "MemLeak" && row[1] == "FADE" {
			found = true
			if row[2] != f2(ref.Slowdown) {
				t.Fatalf("1-core cell %s != two-core slowdown %s", row[2], f2(ref.Slowdown))
			}
		}
	}
	if !found {
		t.Fatal("MemLeak/FADE row missing")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Instrs == 0 || o.Seed == 0 {
		t.Fatal("defaults not applied")
	}
	if o.Parallel != 0 {
		t.Fatal("Parallel should default to 0 (GOMAXPROCS)")
	}
}

// TestParallelMatchesSequential is the determinism guarantee of the parallel
// runner: the same experiment run sequentially (Parallel=1) and wide
// (Parallel=8) must render byte-identical tables — per-cell RNGs derive only
// from (seed, benchmark, config) and rows are assembled in cell order.
func TestParallelMatchesSequential(t *testing.T) {
	for _, id := range []string{
		"fig2bc", // queue-study path
		"fig11c", // full-system path, two runs per cell
	} {
		seq := tiny()
		seq.Parallel = 1
		st, err := ByID(id, seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		wide := tiny()
		wide.Parallel = 8
		wt, err := ByID(id, wide)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if st.String() != wt.String() {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
				id, st.String(), wt.String())
		}
	}
}

// TestTraceOrderGroupsCells: fig9's monitor-major table starts benchmark
// by benchmark, each group contiguous, groups in order of their last
// cell, table order inside a group.
func TestTraceOrderGroupsCells(t *testing.T) {
	cells, err := CellsFor("fig9", tiny())
	if err != nil {
		t.Fatal(err)
	}
	order := traceOrder(cells)
	if len(order) != len(cells) {
		t.Fatalf("order lists %d of %d cells", len(order), len(cells))
	}
	seen := make([]bool, len(cells))
	done := map[string]bool{}
	for k, i := range order {
		if seen[i] {
			t.Fatalf("cell %d dispatched twice", i)
		}
		seen[i] = true
		b := cells[i].Spec.Benchmark
		if k > 0 {
			prev := cells[order[k-1]].Spec.Benchmark
			if prev == b && order[k-1] > i {
				t.Fatalf("group %s out of table order at position %d", b, k)
			}
			if prev != b {
				if done[b] {
					t.Fatalf("group %s split at position %d", b, k)
				}
				done[prev] = true
			}
		}
	}
	last := map[string]int{}
	for i, c := range cells {
		last[c.Spec.Benchmark] = i
	}
	for k := 1; k < len(order); k++ {
		prev, b := cells[order[k-1]].Spec.Benchmark, cells[order[k]].Spec.Benchmark
		if prev != b && last[prev] > last[b] {
			t.Fatalf("group %s (last cell %d) starts after group %s (last cell %d)", b, last[b], prev, last[prev])
		}
	}

	// Groups a = {0, 2, 5}, m = {1, 3, 6}, g = {4}.
	var small []Cell
	for i, b := range []string{"astar", "mcf", "astar", "mcf", "gcc", "astar", "mcf"} {
		small = append(small, Cell{Label: fmt.Sprint(b, i), Spec: runspec.Spec{Benchmark: b, Seed: 1, Instrs: 1000}})
	}
	if got := fmt.Sprint(traceOrder(small)); got != "[4 0 2 5 1 3 6]" {
		t.Errorf("traceOrder = %s, want [4 0 2 5 1 3 6]", got)
	}
}

// TestFreshSeedSweepsFillEachStreamOnce: fig9 and fault-sweep at a seed
// the process has not run read each of their streams from one fill, so
// the trace store sees no refill and keeps its idle allowance; a sweep
// that never reopens an evicted stream behaves as with an idle set of one.
func TestFreshSeedSweepsFillEachStreamOnce(t *testing.T) {
	for i, id := range []string{"fig9", "fault-sweep"} {
		o := Options{Instrs: 5_000, Seed: 0xF5EED + uint64(i), Parallel: 1}
		cells, err := CellsFor(id, o)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			bench        string
			seed, instrs uint64
			inject       trace.Inject
		}
		keys := map[key]bool{}
		for _, c := range cells {
			k := key{bench: c.Spec.Benchmark, seed: c.Spec.Seed, instrs: c.Spec.Instrs}
			if c.Spec.Inject != nil {
				k.inject = *c.Spec.Inject
			}
			keys[k] = true
		}
		system.ResetBaselineCache()
		before := trace.StoreStats()
		if _, err := ByID(id, o); err != nil {
			t.Fatal(err)
		}
		st := trace.StoreStats()
		if fills := st.Fills - before.Fills; fills != uint64(len(keys)) || st.Refills != before.Refills || st.IdleAllowance != before.IdleAllowance {
			t.Errorf("%s: %d fills for %d streams; refills %d -> %d, idle allowance %d -> %d",
				id, fills, len(keys), before.Refills, st.Refills, before.IdleAllowance, st.IdleAllowance)
		}
	}
}

// TestGroupedDispatchKeepsDeterminism: with cells dispatched out of table
// order, outcomes still come back in table order, each par.cell span names
// its table index, and the reported error is the lowest-indexed failing
// cell's even though a later-indexed failure ran first.
func TestGroupedDispatchKeepsDeterminism(t *testing.T) {
	var cells []Cell
	for i, b := range []string{"astar", "mcf", "astar", "mcf", "gcc"} {
		cells = append(cells, Cell{Label: fmt.Sprint(b, i), Spec: runspec.Spec{Benchmark: b, Seed: 1, Instrs: 1000}})
	}
	want := []int{0, 2, 1, 3, 4}
	if got := traceOrder(cells); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("traceOrder = %v, want %v", got, want)
	}

	tr := spans.New("t", 64)
	o := Options{Parallel: 1, Ctx: spans.NewContext(context.Background(), tr)}
	var ran []string
	outs, err := runCells(o, cells, func(_ context.Context, c Cell) (string, error) {
		ran = append(ran, c.Label)
		return c.Label, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if outs[i] != c.Label {
			t.Fatalf("outcome %d is %q, want %q", i, outs[i], c.Label)
		}
	}
	if fmt.Sprint(ran) != "[astar0 astar2 mcf1 mcf3 gcc4]" {
		t.Fatalf("dispatch order %v", ran)
	}
	var spanCells []uint64
	for _, s := range tr.Spans() {
		if s.Name == spans.NameParCell {
			spanCells = append(spanCells, s.Args[0].Num)
		}
	}
	if fmt.Sprint(spanCells) != "[0 2 1 3 4]" {
		t.Fatalf("par.cell spans name cells %v; want table indices in dispatch order [0 2 1 3 4]", spanCells)
	}

	// Cell 2 (first group) fails before cell 1 (second group) runs; the
	// error is still cell 1's.
	_, err = runCells(Options{Parallel: 1, Ctx: context.Background()}, cells, func(_ context.Context, c Cell) (string, error) {
		if c.Label == "mcf1" || c.Label == "astar2" {
			return "", errors.New("boom " + c.Label)
		}
		return c.Label, nil
	})
	if err == nil || !strings.Contains(err.Error(), "cell 1: boom mcf1") {
		t.Fatalf("err = %v, want cell 1's", err)
	}
}
