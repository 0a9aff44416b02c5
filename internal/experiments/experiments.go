package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fade/internal/monitor"
	"fade/internal/obs"
	"fade/internal/par"
	"fade/internal/queue"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/spans"
	"fade/internal/stats"
	"fade/internal/synth"
	"fade/internal/system"
	"fade/internal/trace"
)

// Options control simulation scale. Zero values select defaults suitable
// for a full fadebench run.
type Options struct {
	// Instrs is the per-run application instruction budget.
	Instrs uint64
	// Seed is the base RNG seed.
	Seed uint64
	// Parallel bounds the number of simulation cells run concurrently:
	// 0 selects GOMAXPROCS, 1 forces sequential execution. Results are
	// identical at any width; per-cell RNGs are derived from
	// (Seed, benchmark) and rows are assembled in cell order.
	Parallel int
	// TimelineEvery enables cycle-sampled telemetry inside every
	// full-system cell: each cell's Timeline is attached to the
	// table alongside its metrics snapshot. 0 disables sampling.
	TimelineEvery uint64
	// AppCores, when non-zero, runs every cell on a CMP of that many
	// application cores with MonCores dedicated monitor cores (MonCores
	// defaults to AppCores). Experiments that pin their own topology
	// (fig9/fig10/fig11a/fig11b, the multicore sweep) override it.
	AppCores int
	// MonCores is the dedicated monitor core count for AppCores; ignored
	// when AppCores is 0.
	MonCores int
	// Ctx cancels in-flight experiments: once it is done, running cells
	// abort with an error wrapping sim.ErrCanceled and queued cells are
	// skipped. nil selects context.Background (no cancellation).
	Ctx context.Context
	// CheckInvariants runs every full-system cell with the per-cycle
	// invariant checker armed, so a sweep doubles as a correctness audit
	// (the fadesim/fadebench -check flag).
	CheckInvariants bool
	// FastForward runs every full-system cell with the scheduler's
	// event-driven skip-ahead armed (runspec.Spec.FastForward): results
	// are byte-identical, only wall-clock time changes. CheckInvariants
	// pins cells back to cycle-exact execution even when this is set.
	FastForward bool
	// Cache, when non-nil, memoizes every cell through the
	// content-addressed result store: cells whose spec hash is already
	// present are decoded instead of simulated, which makes interrupted
	// sweeps resumable (fadebench -cache-dir). Tables are byte-identical
	// with or without it.
	Cache *rcache.Cache
}

func (o Options) withDefaults() Options {
	if o.Instrs == 0 {
		o.Instrs = 300_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// Cell is one independent simulation of an experiment: a canonical run
// spec plus the label its telemetry is attached under. Cells are the unit
// of caching and distribution — Spec.Hash() is the cell's content address.
type Cell struct {
	Label string       `json:"label"`
	Spec  runspec.Spec `json:"spec"`
}

// experiment is one registered figure/table reproduction: cells
// enumerates its simulation cells in table order, build assembles the
// table from the outcomes (outs[i] is cells[i]'s). Telemetry attachment
// is generic — build never touches Table.Cells.
type experiment struct {
	id    string
	cells func(Options) ([]Cell, error)
	build func(Options, []Cell, []*system.Outcome) (*Table, error)
}

// runCells dispatches an experiment's independent simulation cells through
// the worker pool in traceOrder, returning results in cell order.
// Options.Ctx is passed to every cell; cells must thread it into
// system.ExecSpec so cancellation reaches the scheduler's checkpoints.
func runCells[R any](o Options, cells []Cell, fn func(context.Context, Cell) (R, error)) ([]R, error) {
	return par.RunCellsOrdered(o.Ctx, o.Parallel, cells, traceOrder(cells), fn)
}

// traceOrder is the order in which to start cells so that the cells
// drawing the same instruction stream run back to back: cells grouped by
// (benchmark, seed, instrs, inject), table order within a group. The trace
// store then generates each stream once and, since a stream is seldom
// reopened after its group ends, holds only the traces running cells read
// plus one idle one, however the table interleaves benchmarks (fig9 is
// monitor-major).
//
// Groups start in the order of their last cell. A sweep keeps every
// outcome until its table is built; in this order only cells before a
// group's last cell have finished when the group runs, so it runs over no
// more kept outcomes than that cell does in table order. So in fig9 and
// fault-sweep the 4-thread AtomCheck groups, whose cells need the most
// memory, run first rather than last. Kept outcomes are small now that a
// finished histogram keeps only its occupied buckets: a 50k-instruction
// fault-sweep's live heap at table build fell from about 6.8 MB to 1.6 MB.
func traceOrder(cells []Cell) []int {
	type key struct {
		bench        string
		seed, instrs uint64
		inject       trace.Inject
	}
	group := map[key]int{}
	var groups [][]int
	for i, c := range cells {
		k := key{bench: c.Spec.Benchmark, seed: c.Spec.Seed, instrs: c.Spec.Instrs}
		if c.Spec.Inject != nil {
			k.inject = *c.Spec.Inject
		}
		g, ok := group[k]
		if !ok {
			g = len(groups)
			group[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	sort.SliceStable(groups, func(a, b int) bool {
		return groups[a][len(groups[a])-1] < groups[b][len(groups[b])-1]
	})
	order := make([]int, 0, len(cells))
	for _, g := range groups {
		order = append(order, g...)
	}
	return order
}

// run executes one registered experiment: enumerate cells, execute each
// through the (optional) result cache, build the table, attach telemetry
// in cell order.
func run(e experiment, o Options) (*Table, error) {
	o = o.withDefaults()
	cells, err := e.cells(o)
	if err != nil {
		return nil, err
	}
	outs, err := runCells(o, cells, func(ctx context.Context, c Cell) (*system.Outcome, error) {
		// A sweep trace stays wall-domain: par.RunCells reads the trace from
		// Ctx for its par.cell spans, but the simulator must not — hundreds
		// of cells emitting cycle spans into one shared ring would bury the
		// sweep. Per-run cycle traces belong to fadesim/fadeserve.
		return system.ExecSpec(spans.WithoutTrace(ctx), c.Spec, system.WithCache(o.Cache))
	})
	if err != nil {
		return nil, err
	}
	t, err := e.build(o, cells, outs)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.attachOutcome(c.Label, outs[i])
	}
	return t, nil
}

// spec is the full-system cell of running bench under mon: the paper's
// default configuration (non-blocking FADE on a single dual-threaded 4-way
// OoO core with 32/16-entry queues) with the option-controlled knobs
// applied, defaults spelled out.
func (o Options) spec(bench, mon string) runspec.Spec {
	s := runspec.Spec{
		Benchmark: bench, Monitor: mon, Seed: o.Seed, Instrs: o.Instrs,
		TimelineEvery: o.TimelineEvery, CheckInvariants: o.CheckInvariants, FastForward: o.FastForward,
	}
	if o.AppCores > 0 {
		mc := o.MonCores
		if mc == 0 {
			mc = o.AppCores
		}
		setTopology(&s, o.AppCores, mc)
	}
	return s.Normalize()
}

// setTopology sets a spec's topology: app application cores served by mon
// dedicated monitor cores, or by SMT monitor threads when mon is 0.
func setTopology(s *runspec.Spec, app, mon int) {
	s.AppCores, s.MonCores, s.SMT = app, mon, mon == 0
}

// studySpec is one Section 3 queue-study cell (an ideal 1-event/cycle
// drain behind an event queue of the given capacity).
func (o Options) studySpec(bench, mon string, cap int) runspec.Spec {
	return runspec.Spec{
		Kind: runspec.KindStudy, Benchmark: bench, Monitor: mon,
		Core: runspec.Core4Way, EventQueueCap: cap,
		Seed: o.Seed, Instrs: o.Instrs,
	}
}

// studyGrid enumerates every (monitor, benchmark) queue-study cell of the
// given monitors in table order: monitors outer, each monitor's suite
// inner.
func (o Options) studyGrid(mons []string, cap int) []Cell {
	var cells []Cell
	for _, mon := range mons {
		for _, bench := range BenchesFor(mon) {
			cells = append(cells, Cell{Label: mon + "/" + bench, Spec: o.studySpec(bench, mon, cap)})
		}
	}
	return cells
}

// runGrid enumerates every (monitor, benchmark) full-system cell of the
// given monitors, with mutate (optional) applied to the paper-default
// spec.
func (o Options) runGrid(mons []string, mutate func(*runspec.Spec)) []Cell {
	var cells []Cell
	for _, mon := range mons {
		for _, bench := range BenchesFor(mon) {
			s := o.spec(bench, mon)
			if mutate != nil {
				mutate(&s)
			}
			cells = append(cells, Cell{Label: mon + "/" + bench, Spec: s})
		}
	}
	return cells
}

// Table is one regenerated figure or table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// Cells carries the full metrics-registry snapshot of every
	// simulation cell behind the table, in cell order, so a table's
	// summary numbers can always be re-derived (and cross-checked) from
	// raw counters. It is serialized by fadebench -json and the
	// -metrics/-timeline sinks, and omitted from the text rendering.
	Cells []CellMetrics
}

// CellMetrics is one simulation cell's telemetry: its end-of-run registry
// snapshot and, when Options.TimelineEvery is set, its cycle-sampled
// timeline.
type CellMetrics struct {
	// Cell identifies the cell ("monitor/benchmark", plus a config
	// discriminator where one table runs several per pair).
	Cell     string          `json:"cell"`
	Metrics  *obs.Snapshot   `json:"metrics"`
	Timeline []*obs.Snapshot `json:"timeline,omitempty"`
}

// attach records one full-system cell's telemetry on the table.
func (t *Table) attach(label string, r *system.Result) {
	if r == nil || r.Metrics == nil {
		return
	}
	t.Cells = append(t.Cells, CellMetrics{Cell: label, Metrics: r.Metrics, Timeline: r.Timeline})
}

// attachStudy records one queue-study cell's telemetry on the table.
func (t *Table) attachStudy(label string, qs *system.QueueStudy) {
	if qs == nil || qs.Metrics == nil {
		return
	}
	t.Cells = append(t.Cells, CellMetrics{Cell: label, Metrics: qs.Metrics})
}

// attachOutcome records whatever telemetry a cell's outcome carries:
// full-system runs attach metrics+timeline, queue studies attach metrics,
// core-model and baseline outcomes carry none.
func (t *Table) attachOutcome(label string, out *system.Outcome) {
	if out == nil {
		return
	}
	t.attach(label, out.Result)
	t.attachStudy(label, out.Study)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// BenchesFor returns the benchmark suite a monitor is evaluated on
// (Section 6): SPEC integer for the serial monitors, the taint-propagating
// subset for TaintCheck, and the multithreaded suite for AtomCheck.
func BenchesFor(mon string) []string {
	switch mon {
	case "AtomCheck":
		return trace.ParallelNames()
	case "TaintCheck":
		return trace.TaintNames()
	default:
		return trace.SerialNames()
	}
}

// Monitors returns the evaluated monitors in the paper's order.
func Monitors() []string { return monitor.Names() }

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// expFig2a reproduces Fig. 2(a): application IPC split into monitored and
// unmonitored instructions per cycle, averaged across each monitor's
// benchmarks, on the aggressive 4-way OoO core.
var expFig2a = experiment{
	id: "fig2a",
	cells: func(o Options) ([]Cell, error) {
		return o.studyGrid(Monitors(), queue.Unbounded), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig2a",
			Title:  "App IPC breakdown per monitor (avg across benchmarks, 4-way OoO)",
			Header: []string{"monitor", "app IPC", "monitored IPC", "unmonitored IPC"},
		}
		i := 0
		for _, mon := range Monitors() {
			var app, monIPC []float64
			for range BenchesFor(mon) {
				qs := outs[i].Study
				i++
				app = append(app, qs.AppIPC)
				monIPC = append(monIPC, qs.MonitoredIPC)
			}
			a, m := stats.AMean(app), stats.AMean(monIPC)
			t.Rows = append(t.Rows, []string{mon, f2(a), f2(m), f2(a - m)})
		}
		t.Notes = append(t.Notes,
			"paper: monitored IPC up to 0.4 for memory-tracking, up to 0.68 for propagation-tracking monitors")
		return t, nil
	},
}

// expFig2bc reproduces Fig. 2(b,c): per-benchmark monitored IPC for AddrCheck
// (memory tracking) and MemLeak (propagation tracking).
var expFig2bc = experiment{
	id: "fig2bc",
	cells: func(o Options) ([]Cell, error) {
		var cells []Cell
		for _, bench := range trace.SerialNames() {
			for _, mon := range []string{"AddrCheck", "MemLeak"} {
				cells = append(cells, Cell{Label: mon + "/" + bench, Spec: o.studySpec(bench, mon, queue.Unbounded)})
			}
		}
		return cells, nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig2bc",
			Title:  "Per-benchmark IPC breakdown: AddrCheck vs MemLeak (4-way OoO)",
			Header: []string{"benchmark", "app IPC", "AddrCheck monitored", "MemLeak monitored"},
		}
		var acSum, mlSum []float64
		for i, bench := range trace.SerialNames() {
			ac, ml := outs[2*i].Study, outs[2*i+1].Study
			acSum = append(acSum, ac.MonitoredIPC)
			mlSum = append(mlSum, ml.MonitoredIPC)
			t.Rows = append(t.Rows, []string{bench, f2(ac.AppIPC), f2(ac.MonitoredIPC), f2(ml.MonitoredIPC)})
		}
		t.Rows = append(t.Rows, []string{"mean", "", f2(stats.AMean(acSum)), f2(stats.AMean(mlSum))})
		t.Notes = append(t.Notes, "paper: AddrCheck avg 0.24; MemLeak avg 0.68, bzip 1.2, mcf 0.2")
		return t, nil
	},
}

// occupancyProbes are the x-axis points of Fig. 3(a,b).
var occupancyProbes = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// expFig3ab reproduces Fig. 3(a,b): the cumulative distribution of an infinite
// event queue's occupancy under a 1-event/cycle drain, for AddrCheck and
// MemLeak.
var expFig3ab = experiment{
	id: "fig3ab",
	cells: func(o Options) ([]Cell, error) {
		return o.studyGrid([]string{"AddrCheck", "MemLeak"}, queue.Unbounded), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig3ab",
			Title:  "Infinite event-queue occupancy CDF (% of cycles <= N entries)",
			Header: append([]string{"monitor/bench"}, probeHeader()...),
		}
		for i, c := range cells {
			row := []string{c.Label}
			for _, pt := range outs[i].Study.Occupancy.CDFAtPoints(occupancyProbes) {
				row = append(row, fmt.Sprintf("%.0f", pt.Frac*100))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"paper: AddrCheck bursts fit in 8 entries; MemLeak needs 128 (mcf) to 8K (omnetpp); bzip grows unboundedly")
		return t, nil
	},
}

func probeHeader() []string {
	h := make([]string, len(occupancyProbes))
	for i, p := range occupancyProbes {
		h[i] = fmt.Sprintf("<=%d", p)
	}
	return h
}

// expFig3c reproduces Fig. 3(c): MemLeak slowdown versus event-queue size
// (32 entries vs 32K entries), with the 1-event/cycle drain.
var expFig3c = experiment{
	id: "fig3c",
	cells: func(o Options) ([]Cell, error) {
		var cells []Cell
		for _, bench := range trace.SerialNames() {
			for _, cap := range []int{32 * 1024, 32} {
				cells = append(cells, Cell{
					Label: fmt.Sprintf("MemLeak/%s/evq%d", bench, cap),
					Spec:  o.studySpec(bench, "MemLeak", cap),
				})
			}
		}
		return cells, nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig3c",
			Title:  "Effect of event queue size on performance (MemLeak, ideal 1-ev/cycle drain)",
			Header: []string{"benchmark", "32K entries", "32 entries"},
		}
		var s32k, s32 []float64
		for i, bench := range trace.SerialNames() {
			big, small := outs[2*i].Study, outs[2*i+1].Study
			s32k = append(s32k, big.Slowdown)
			s32 = append(s32, small.Slowdown)
			t.Rows = append(t.Rows, []string{bench, f2(big.Slowdown), f2(small.Slowdown)})
		}
		t.Rows = append(t.Rows, []string{"gmean", f2(stats.GMean(s32k)), f2(stats.GMean(s32))})
		t.Notes = append(t.Notes,
			"paper: 32-entry queue costs at most 1.17x (gobmk); bzip ~1.33-1.36x regardless (monitored IPC > 1)")
		return t, nil
	},
}

// expFig4a reproduces Fig. 4(a): the unaccelerated monitors' execution-time
// breakdown into clean-check, redundant-update, stack-update, and complex
// handler work.
var expFig4a = experiment{
	id: "fig4a",
	cells: func(o Options) ([]Cell, error) {
		return o.runGrid(Monitors(), func(s *runspec.Spec) { s.Accel = runspec.AccelNone }), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig4a",
			Title:  "Monitor execution-time breakdown (unaccelerated, % of handler instructions)",
			Header: []string{"monitor", "CC", "RU", "stack updates", "complex", "high-level"},
		}
		i := 0
		for _, mon := range Monitors() {
			agg := map[monitor.Class]float64{}
			for range BenchesFor(mon) {
				r := outs[i].Result
				i++
				total := 0.0
				for _, v := range r.ClassInstr {
					total += v
				}
				if total == 0 {
					continue
				}
				for k, v := range r.ClassInstr {
					agg[k] += v / total
				}
			}
			n := float64(len(BenchesFor(mon)))
			t.Rows = append(t.Rows, []string{
				mon,
				pct(agg[monitor.ClassCC] / n), pct(agg[monitor.ClassRU] / n),
				pct(agg[monitor.ClassStack] / n), pct(agg[monitor.ClassSlow] / n),
				pct(agg[monitor.ClassHigh] / n),
			})
		}
		t.Notes = append(t.Notes,
			"paper: instructions dominate; stack updates reach ~17% for two of five monitors")
		return t, nil
	},
}

// distanceProbes are the x-axis points of Fig. 4(b).
var distanceProbes = []int{0, 1, 2, 4, 8, 16, 32, 64, 128}

// expFig4b reproduces Fig. 4(b): the CDF of distances (in events) between
// consecutive unfiltered events under MemLeak.
var expFig4b = experiment{
	id: "fig4b",
	cells: func(o Options) ([]Cell, error) {
		var cells []Cell
		for _, bench := range trace.SerialNames() {
			cells = append(cells, Cell{Label: "MemLeak/" + bench, Spec: o.spec(bench, "MemLeak")})
		}
		return cells, nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig4b",
			Title:  "Distance between unfiltered events, CDF (MemLeak, % <= N events)",
			Header: append([]string{"benchmark"}, distHeader()...),
		}
		for i, bench := range trace.SerialNames() {
			row := []string{bench}
			for _, pt := range outs[i].Result.Filter.UnfilteredDistance.CDFAtPoints(distanceProbes) {
				row = append(row, fmt.Sprintf("%.0f", pt.Frac*100))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes, "paper: two unfiltered events are typically separated by up to 16 filterable events")
		return t, nil
	},
}

func distHeader() []string {
	h := make([]string, len(distanceProbes))
	for i, p := range distanceProbes {
		h[i] = fmt.Sprintf("<=%d", p)
	}
	return h
}

// expFig4c reproduces Fig. 4(c): the average unfiltered burst size per monitor
// and benchmark (a burst = unfiltered events separated by <=16 filterable
// events).
var expFig4c = experiment{
	id: "fig4c",
	cells: func(o Options) ([]Cell, error) {
		return o.runGrid(Monitors(), nil), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig4c",
			Title:  "Unfiltered burst size (mean events per burst)",
			Header: []string{"monitor", "per-benchmark mean bursts", "avg"},
		}
		i := 0
		for _, mon := range Monitors() {
			var parts []string
			var means []float64
			for _, bench := range BenchesFor(mon) {
				m := outs[i].Result.Filter.BurstSizes.Mean()
				i++
				means = append(means, m)
				parts = append(parts, fmt.Sprintf("%s=%.1f", bench, m))
			}
			t.Rows = append(t.Rows, []string{mon, strings.Join(parts, " "), f2(stats.AMean(means))})
		}
		t.Notes = append(t.Notes, "paper: bursts average 16 or fewer unfiltered events for most pairs")
		return t, nil
	},
}

// expTable2 reproduces Table 2: FADE's filtering efficiency per monitor.
var expTable2 = experiment{
	id: "table2",
	cells: func(o Options) ([]Cell, error) {
		return o.runGrid(Monitors(), nil), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "table2",
			Title:  "FADE filtering efficiency (instruction event handlers elided)",
			Header: []string{"monitor", "filter ratio", "paper"},
		}
		paper := map[string]string{
			"AddrCheck": "99.5%", "AtomCheck": "85.5%", "MemCheck": "98.0%",
			"MemLeak": "87.0%", "TaintCheck": "84.0%",
		}
		i := 0
		for _, mon := range Monitors() {
			var ratios []float64
			for range BenchesFor(mon) {
				ratios = append(ratios, outs[i].Result.Filter.FilterRatio())
				i++
			}
			t.Rows = append(t.Rows, []string{mon, pct(stats.AMean(ratios)), paper[mon]})
		}
		return t, nil
	},
}

// pairGrid enumerates two cells per (monitor, benchmark) — one per spec
// variant, labels suffixed — in table order. The variants mutate the
// paper-default spec (after pin, which every pair experiment uses to fix
// its topology/core).
func (o Options) pairGrid(mons []string, pin func(*runspec.Spec),
	sufA string, mutA func(*runspec.Spec),
	sufB string, mutB func(*runspec.Spec)) []Cell {
	var cells []Cell
	for _, mon := range mons {
		for _, bench := range BenchesFor(mon) {
			base := o.spec(bench, mon)
			if pin != nil {
				pin(&base)
			}
			a, b := base, base
			mutA(&a)
			mutB(&b)
			label := mon + "/" + bench
			cells = append(cells, Cell{Label: label + sufA, Spec: a}, Cell{Label: label + sufB, Spec: b})
		}
	}
	return cells
}

// expFig9 reproduces Fig. 9: per-benchmark slowdown of the unaccelerated and
// FADE systems (both single-core dual-threaded, 4-way OoO), for AddrCheck,
// MemLeak, and AtomCheck, plus suite averages for every monitor.
var expFig9 = experiment{
	id: "fig9",
	cells: func(o Options) ([]Cell, error) {
		return o.pairGrid(Monitors(),
			func(s *runspec.Spec) { setTopology(s, 1, 0); s.Core = runspec.Core4Way },
			"/unacc", func(s *runspec.Spec) { s.Accel = runspec.AccelNone },
			"/fade", func(s *runspec.Spec) { s.Accel = runspec.AccelFADE }), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig9",
			Title:  "FADE vs unaccelerated slowdown (single-core dual-threaded, 4-way OoO)",
			Header: []string{"monitor", "benchmark", "unaccelerated", "FADE"},
		}
		var allUnacc, allFade []float64
		i := 0
		for _, mon := range Monitors() {
			detailed := mon == "AddrCheck" || mon == "MemLeak" || mon == "AtomCheck"
			var unacc, fade []float64
			for _, bench := range BenchesFor(mon) {
				u, f := outs[2*i].Result, outs[2*i+1].Result
				i++
				unacc = append(unacc, u.Slowdown)
				fade = append(fade, f.Slowdown)
				if detailed {
					t.Rows = append(t.Rows, []string{mon, bench, f2(u.Slowdown), f2(f.Slowdown)})
				}
			}
			allUnacc = append(allUnacc, unacc...)
			allFade = append(allFade, fade...)
			t.Rows = append(t.Rows, []string{mon, "mean", f2(stats.AMean(unacc)), f2(stats.AMean(fade))})
		}
		t.Rows = append(t.Rows, []string{"overall", "mean", f2(stats.AMean(allUnacc)), f2(stats.AMean(allFade))})
		t.Notes = append(t.Notes,
			"paper: unaccelerated avg 4.1x (AddrCheck 1.6, MemLeak 7.4, AtomCheck 3.9); FADE avg 1.5x (1.2/1.8/1.6; MemCheck 1.4, TaintCheck 1.6)")
		return t, nil
	},
}

// coreModels are the evaluated core types in Table 1 order: the spec's core
// name and the label fig10's cells carry.
var coreModels = []struct{ name, label string }{
	{runspec.CoreInOrder, "in-order"},
	{runspec.Core2Way, "2-way OoO"},
	{runspec.Core4Way, "4-way OoO"},
}

// expFig10 reproduces Fig. 10: average slowdown per monitor for the three core
// types, unaccelerated and FADE-enabled (single-core dual-threaded).
var expFig10 = experiment{
	id: "fig10",
	cells: func(o Options) ([]Cell, error) {
		var cells []Cell
		for _, mon := range Monitors() {
			for _, core := range coreModels {
				for _, bench := range BenchesFor(mon) {
					base := o.spec(bench, mon)
					setTopology(&base, 1, 0)
					base.Core = core.name
					label := fmt.Sprintf("%s/%s/%s", mon, bench, core.label)
					unacc, fade := base, base
					unacc.Accel = runspec.AccelNone
					fade.Accel = runspec.AccelFADE
					cells = append(cells,
						Cell{Label: label + "/unacc", Spec: unacc},
						Cell{Label: label + "/fade", Spec: fade})
				}
			}
		}
		return cells, nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:    "fig10",
			Title: "Slowdown by core microarchitecture (single-core system, suite average)",
			Header: []string{"monitor",
				"unacc in-order", "unacc 2-way", "unacc 4-way",
				"FADE in-order", "FADE 2-way", "FADE 4-way"},
		}
		i := 0
		for _, mon := range Monitors() {
			row := []string{mon}
			var unaccCols, fadeCols []string
			for range coreModels {
				var unacc, fade []float64
				for range BenchesFor(mon) {
					unacc = append(unacc, outs[2*i].Result.Slowdown)
					fade = append(fade, outs[2*i+1].Result.Slowdown)
					i++
				}
				unaccCols = append(unaccCols, f2(stats.AMean(unacc)))
				fadeCols = append(fadeCols, f2(stats.AMean(fade)))
			}
			row = append(row, unaccCols...)
			row = append(row, fadeCols...)
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"paper: unaccelerated monitors are core-sensitive (7-51% worse on simpler cores); FADE is much less so")
		return t, nil
	},
}

// expFig11a reproduces Fig. 11(a): single-core versus two-core FADE systems.
var expFig11a = experiment{
	id: "fig11a",
	cells: func(o Options) ([]Cell, error) {
		return o.pairGrid(Monitors(), nil,
			"/single", func(*runspec.Spec) {},
			"/two", func(s *runspec.Spec) { setTopology(s, 1, 1) }), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig11a",
			Title:  "Single-core vs two-core FADE systems (avg slowdown, 4-way OoO)",
			Header: []string{"monitor", "single-core", "two-core", "two-core benefit"},
		}
		i := 0
		for _, mon := range Monitors() {
			var single, double []float64
			for range BenchesFor(mon) {
				single = append(single, outs[2*i].Result.Slowdown)
				double = append(double, outs[2*i+1].Result.Slowdown)
				i++
			}
			s, d := stats.AMean(single), stats.AMean(double)
			t.Rows = append(t.Rows, []string{mon, f2(s), f2(d), pct(s/d - 1)})
		}
		t.Notes = append(t.Notes, "paper: two-core outperforms single-core by 15% on average (28% max)")
		return t, nil
	},
}

// expFig11b reproduces Fig. 11(b): the two-core system's utilization breakdown.
var expFig11b = experiment{
	id: "fig11b",
	cells: func(o Options) ([]Cell, error) {
		return o.runGrid(Monitors(), func(s *runspec.Spec) { setTopology(s, 1, 1) }), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig11b",
			Title:  "Two-core utilization breakdown (% of cycles)",
			Header: []string{"monitor", "app core idle", "monitor core idle", "both utilized"},
		}
		i := 0
		for _, mon := range Monitors() {
			var ai, mi, bb []float64
			for range BenchesFor(mon) {
				r := outs[i].Result
				i++
				ai = append(ai, r.AppIdleFrac)
				mi = append(mi, r.MonIdleFrac)
				bb = append(bb, r.BothBusyFrac)
			}
			t.Rows = append(t.Rows, []string{mon, pct(stats.AMean(ai)), pct(stats.AMean(mi)), pct(stats.AMean(bb))})
		}
		t.Notes = append(t.Notes, "paper: one core idle 48-97% of the time; both utilized only ~22% on average")
		return t, nil
	},
}

// expFig11c reproduces Fig. 11(c): blocking versus non-blocking FADE.
var expFig11c = experiment{
	id: "fig11c",
	cells: func(o Options) ([]Cell, error) {
		return o.pairGrid(Monitors(), nil,
			"/blocking", func(s *runspec.Spec) { s.Accel = runspec.AccelBlocking },
			"/nonblocking", func(s *runspec.Spec) { s.Accel = runspec.AccelFADE }), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "fig11c",
			Title:  "Blocking vs Non-Blocking FADE (avg slowdown, single-core 4-way OoO)",
			Header: []string{"monitor", "blocking", "non-blocking", "NB benefit"},
		}
		i := 0
		for _, mon := range Monitors() {
			var blk, nb []float64
			for range BenchesFor(mon) {
				blk = append(blk, outs[2*i].Result.Slowdown)
				nb = append(nb, outs[2*i+1].Result.Slowdown)
				i++
			}
			b, n := stats.AMean(blk), stats.AMean(nb)
			t.Rows = append(t.Rows, []string{mon, f2(b), f2(n), fmt.Sprintf("%.2fx", b/n)})
		}
		t.Notes = append(t.Notes,
			"paper: ~2x for the low-filter-ratio monitors (AtomCheck, MemLeak, TaintCheck), ~1.1x for AddrCheck/MemCheck")
		return t, nil
	},
}

// expSynth reproduces the Section 7.6 area/power estimates.
var expSynth = experiment{
	id:    "synth",
	cells: func(o Options) ([]Cell, error) { return nil, nil },
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		blocks := synth.FADEBlocks()
		t := &Table{
			ID:     "synth",
			Title:  "Area and peak power, TSMC 40nm @ 2GHz (Section 7.6)",
			Header: []string{"block", "area mm2", "peak mW"},
		}
		for _, b := range blocks {
			t.Rows = append(t.Rows, []string{b.Name, fmt.Sprintf("%.4f", b.Area()), fmt.Sprintf("%.1f", b.Power())})
		}
		area, power := synth.Totals(blocks)
		t.Rows = append(t.Rows, []string{"FADE total", fmt.Sprintf("%.4f", area), fmt.Sprintf("%.1f", power)})
		md := synth.MDCacheEstimate()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("MD cache 4KB 2-way (%.2f ns access)", md.AccessNs),
			fmt.Sprintf("%.4f", md.AreaMM2), fmt.Sprintf("%.1f", md.PeakPowerMW),
		})
		t.Rows = append(t.Rows, []string{"grand total", fmt.Sprintf("%.4f", area+md.AreaMM2), fmt.Sprintf("%.1f", power+md.PeakPowerMW)})
		t.Notes = append(t.Notes, "paper: FADE 0.09 mm2 / 122 mW; MD cache 0.03 mm2 / 151 mW / 0.3 ns")
		return t, nil
	},
}

// registry lists every experiment in DESIGN.md order; aliases maps the
// extra ByID spellings onto canonical ids.
var registry = []experiment{
	expFig2a, expFig2bc, expFig3ab, expFig3c,
	expFig4a, expFig4b, expFig4c, expTable2,
	expFig9, expFig10, expFig11a, expFig11b, expFig11c,
	expMulticore, expSynth,
	expAblationMDCache, expAblationEvq, expAblationUfq, expAblationSignal,
	expAblationCoreModel, expFaultSweep,
}

var aliases = map[string]string{
	"fig2b": "fig2bc", "fig2c": "fig2bc",
	"fig3a": "fig3ab", "fig3b": "fig3ab",
	"fig8c": "multicore-scaling",
}

func lookup(id string) (experiment, bool) {
	if canon, ok := aliases[id]; ok {
		id = canon
	}
	for _, e := range registry {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// All runs every experiment in DESIGN.md order.
func All(o Options) ([]*Table, error) {
	var out []*Table
	for _, e := range registry {
		tbl, err := run(e, o)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// ByID runs a single experiment by id.
func ByID(id string, o Options) (*Table, error) {
	e, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return run(e, o)
}

// IDs lists the experiment identifiers accepted by ByID.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// CellsFor enumerates an experiment's simulation cells — label plus
// canonical spec — without executing anything. It is the introspection
// half of the cache workflow: callers can hash or distribute the cells
// (the fabric leases them to workers) and then run the experiment against
// a warm cache.
func CellsFor(id string, o Options) ([]Cell, error) {
	e, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e.cells(o.withDefaults())
}
