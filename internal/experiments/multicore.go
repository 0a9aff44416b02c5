package experiments

// Multicore scaling. Section 7 argues FADE scales to CMPs because the
// accelerator is a per-core block: every application core gets a private
// filtering unit and queues, and monitor cores are added alongside
// (Fig. 8c). This experiment scales that organization out — N application
// cores, each with a dedicated monitor core — and reports the aggregate
// slowdown, which should stay flat with N since the groups share nothing.

import (
	"fmt"

	"fade/internal/runspec"
	"fade/internal/system"
)

// multicoreCounts is the app-core sweep of the scaling experiment.
var multicoreCounts = []int{1, 2, 4, 8}

// multicoreAccels orders the acceleration modes of the scaling experiment:
// the spec's accel name and the label its cells and rows carry.
var multicoreAccels = []struct{ name, label string }{
	{runspec.AccelNone, "unaccelerated"},
	{runspec.AccelBlocking, "FADE-blocking"},
	{runspec.AccelFADE, "FADE"},
}

// expMulticore sweeps 1/2/4/8 application cores for every monitor and
// acceleration mode on the CMP topology (N app cores, N dedicated monitor
// cores). Each cell's aggregate slowdown normalizes the CMP's completion
// time to its slowest per-core baseline; the 1-core cell is exactly the
// two-core system of Fig. 11(a).
var expMulticore = experiment{
	id: "multicore-scaling",
	cells: func(o Options) ([]Cell, error) {
		var cells []Cell
		for _, mon := range Monitors() {
			for _, accel := range multicoreAccels {
				for _, n := range multicoreCounts {
					// One representative benchmark per monitor keeps the sweep
					// at (1+2+4+8) core-simulations per (monitor, mode) row.
					bench := BenchesFor(mon)[0]
					s := o.spec(bench, mon)
					s.Accel = accel.name
					setTopology(&s, n, n)
					cells = append(cells, Cell{
						Label: fmt.Sprintf("%s/%s/%dcore/%s", mon, accel.label, n, bench),
						Spec:  s,
					})
				}
			}
		}
		return cells, nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "multicore-scaling",
			Title:  "CMP scaling: aggregate slowdown vs application cores (Fig. 8c organization)",
			Header: []string{"monitor", "mode", "1 core", "2 cores", "4 cores", "8 cores"},
		}
		i := 0
		for _, mon := range Monitors() {
			for _, accel := range multicoreAccels {
				row := []string{mon, accel.label}
				for range multicoreCounts {
					row = append(row, f2(outs[i].Result.Slowdown))
					i++
				}
				t.Rows = append(t.Rows, row)
			}
		}
		t.Notes = append(t.Notes,
			"per-core filtering units and private queues share nothing: slowdown stays flat as cores scale (Section 7, Fig. 8c)",
			"1-core cells are the two-core system of Fig. 11(a); each core runs a decorrelated copy of the benchmark")
		return t, nil
	},
}
