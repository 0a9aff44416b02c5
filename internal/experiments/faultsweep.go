package experiments

// Fault sweep. The robustness counterpart of the performance figures: it
// re-runs the Fig. 9 FADE configuration under increasingly severe
// monitor-stall injection (internal/fault) and quantifies how gracefully
// slowdown degrades as the software monitor loses cycles. Every cell runs
// with the per-cycle invariant checker armed, so the sweep simultaneously
// audits the backpressure contract under fault pressure — a cell that
// violates it fails the experiment rather than contributing a bogus row.

import (
	"fmt"

	"fade/internal/fault"
	"fade/internal/stats"
	"fade/internal/system"
)

// expFaultSweep sweeps monitor-stall severity ("none" through "severe") across
// all five monitors on the default single-core FADE system, reporting the
// suite-average slowdown per severity and the degradation factor of the
// severest level over the fault-free run.
var expFaultSweep = experiment{
	id: "fault-sweep",
	cells: func(o Options) ([]Cell, error) {
		levels := fault.StallSeverities()
		var cells []Cell
		for _, mon := range Monitors() {
			for _, bench := range BenchesFor(mon) {
				for _, level := range levels {
					plan, ok := fault.StallSeverity(level)
					if !ok {
						return nil, fmt.Errorf("experiments: unknown stall severity %q", level)
					}
					s := o.spec(bench, mon)
					s.Faults = plan
					s.CheckInvariants = true
					cells = append(cells, Cell{
						Label: fmt.Sprintf("%s/%s/%s", mon, bench, level),
						Spec:  s,
					})
				}
			}
		}
		return cells, nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		levels := fault.StallSeverities()
		t := &Table{
			ID:     "fault-sweep",
			Title:  "Slowdown vs injected monitor-stall severity (FADE, invariant-checked)",
			Header: append(append([]string{"monitor"}, levels...), "severe/none"),
		}
		i := 0
		for _, mon := range Monitors() {
			perLevel := make([][]float64, len(levels))
			for range BenchesFor(mon) {
				for l := range levels {
					perLevel[l] = append(perLevel[l], outs[i].Result.Slowdown)
					i++
				}
			}
			row := []string{mon}
			means := make([]float64, len(levels))
			for l := range levels {
				means[l] = stats.AMean(perLevel[l])
				row = append(row, f2(means[l]))
			}
			row = append(row, fmt.Sprintf("%.2fx", means[len(levels)-1]/means[0]))
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"stall bursts freeze the monitor thread; backpressure propagates UFQ -> accelerator -> MEQ -> app core, so slowdown degrades smoothly rather than events being lost",
			"every cell runs with the per-cycle invariant checker armed; a backpressure-contract breach fails the sweep")
		return t, nil
	},
}
