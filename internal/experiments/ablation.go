package experiments

// Ablation studies. Section 6 mentions a sensitivity analysis for the MD
// cache and M-TLB "excluded due to space limitations" that found the 4 KB /
// 16-entry design point to offer the best cost-performance ratio; these
// experiments reconstruct that analysis, plus queue-depth sweeps for the
// two decoupling queues (extending the Section 3.2/3.4 sizing arguments to
// the full FADE system rather than the idealized drain).

import (
	"fmt"

	"fade/internal/runspec"
	"fade/internal/stats"
	"fade/internal/synth"
	"fade/internal/system"
	"fade/internal/trace"
)

// ablationBenches is a representative subset spanning low and high
// monitoring load, used to keep sweep cost manageable.
var ablationBenches = []string{"astar", "bzip", "mcf", "omnet"}

// sweepCells enumerates one full sweep: every (sweep point, benchmark)
// pair is an independent cell labelled "<monitor>/<point>/<benchmark>"
// (points names the sweep points in mutator order).
func sweepCells(o Options, mon string, points []string, mutators []func(*runspec.Spec)) []Cell {
	var cells []Cell
	for p := range mutators {
		for _, bench := range ablationBenches {
			s := o.spec(bench, mon)
			mutators[p](&s)
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s/%s/%s", mon, points[p], bench),
				Spec:  s,
			})
		}
	}
	return cells
}

// sweepMeans reduces a sweep's outcomes (in sweepCells order) to the
// per-point mean slowdowns.
func sweepMeans(outs []*system.Outcome, npoints int) []float64 {
	means := make([]float64, npoints)
	for p := 0; p < npoints; p++ {
		var slows []float64
		for _, out := range outs[p*len(ablationBenches) : (p+1)*len(ablationBenches)] {
			slows = append(slows, out.Result.Slowdown)
		}
		means[p] = stats.AMean(slows)
	}
	return means
}

// mdcacheKBs is the MD-cache sweep's x-axis (cache size in KB).
var mdcacheKBs = []int{1, 2, 4, 8, 16}

func mdcacheSweep() (points []string, mutators []func(*runspec.Spec)) {
	for _, kb := range mdcacheKBs {
		size := kb << 10
		mutators = append(mutators, func(s *runspec.Spec) { s.MDCacheBytes = size })
		points = append(points, fmt.Sprintf("mdcache%dkb", kb))
	}
	return points, mutators
}

// expAblationMDCache sweeps the metadata cache size and reports slowdown
// against silicon cost — the cost-performance trade the paper's excluded
// sensitivity analysis settles at 4 KB.
var expAblationMDCache = experiment{
	id: "ablation-mdcache",
	cells: func(o Options) ([]Cell, error) {
		points, mutators := mdcacheSweep()
		return sweepCells(o, "MemLeak", points, mutators), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "ablation-mdcache",
			Title:  "MD cache size sensitivity (MemLeak, avg slowdown vs silicon cost)",
			Header: []string{"MD cache", "slowdown", "area mm2", "peak mW"},
		}
		slows := sweepMeans(outs, len(mdcacheKBs))
		for i, kb := range mdcacheKBs {
			est := synth.EstimateCache(kb<<10, 2, 64)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dKB", kb), f2(slows[i]),
				fmt.Sprintf("%.4f", est.AreaMM2), fmt.Sprintf("%.1f", est.PeakPowerMW),
			})
		}
		t.Notes = append(t.Notes,
			"paper (Section 6): the excluded sensitivity analysis found 4KB/two-way the best cost-performance point")
		return t, nil
	},
}

// evqDepths is the event-queue sweep's x-axis.
var evqDepths = []int{4, 8, 16, 32, 64, 128}

func evqSweep() (points []string, mutators []func(*runspec.Spec)) {
	for _, n := range evqDepths {
		n := n
		mutators = append(mutators, func(s *runspec.Spec) { s.EventQueueCap = n })
		points = append(points, fmt.Sprintf("evq%d", n))
	}
	return points, mutators
}

// expAblationEvq sweeps the event queue depth on the full FADE system.
var expAblationEvq = experiment{
	id: "ablation-evq",
	cells: func(o Options) ([]Cell, error) {
		points, mutators := evqSweep()
		return sweepCells(o, "MemLeak", points, mutators), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "ablation-evq",
			Title:  "Event queue depth sensitivity (MemLeak, avg slowdown)",
			Header: []string{"entries", "slowdown"},
		}
		slows := sweepMeans(outs, len(evqDepths))
		for i, n := range evqDepths {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), f2(slows[i])})
		}
		t.Notes = append(t.Notes, "paper (Section 3.2): a 32-entry queue suffices; deeper queues buy little")
		return t, nil
	},
}

// ufqDepths is the unfiltered-queue sweep's x-axis.
var ufqDepths = []int{2, 4, 8, 16, 32}

func ufqSweep() (points []string, mutators []func(*runspec.Spec)) {
	for _, n := range ufqDepths {
		n := n
		mutators = append(mutators, func(s *runspec.Spec) { s.UnfilteredCap = n })
		points = append(points, fmt.Sprintf("ufq%d", n))
	}
	return points, mutators
}

// expAblationUfq sweeps the unfiltered event queue depth.
var expAblationUfq = experiment{
	id: "ablation-ufq",
	cells: func(o Options) ([]Cell, error) {
		points, mutators := ufqSweep()
		return sweepCells(o, "MemLeak", points, mutators), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "ablation-ufq",
			Title:  "Unfiltered event queue depth sensitivity (MemLeak, avg slowdown)",
			Header: []string{"entries", "slowdown"},
		}
		slows := sweepMeans(outs, len(ufqDepths))
		for i, n := range ufqDepths {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), f2(slows[i])})
		}
		t.Notes = append(t.Notes, "paper (Section 3.4): 16 entries accommodate the unfiltered bursts")
		return t, nil
	},
}

// signalLatencies is the blocking-signal sweep's x-axis (-1 = ideal
// doorbell).
var signalLatencies = []int{-1, 7, 14, 28}

func signalSweep() (points []string, mutators []func(*runspec.Spec)) {
	// Point 0 is the non-blocking reference; the rest sweep the blocking
	// design's signal latency.
	mutators = []func(*runspec.Spec){
		func(s *runspec.Spec) { s.Accel = runspec.AccelFADE },
	}
	points = []string{"nonblocking"}
	for _, lat := range signalLatencies {
		lat := lat
		mutators = append(mutators, func(s *runspec.Spec) {
			s.Accel = runspec.AccelBlocking
			s.BlockingSignalCycles = lat
		})
		points = append(points, fmt.Sprintf("signal%d", lat))
	}
	return points, mutators
}

// expAblationSignal quantifies what the Non-Blocking design saves as a
// function of the blocking design's completion-notification latency.
var expAblationSignal = experiment{
	id: "ablation-signal",
	cells: func(o Options) ([]Cell, error) {
		points, mutators := signalSweep()
		return sweepCells(o, "MemLeak", points, mutators), nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "ablation-signal",
			Title:  "Blocking FADE vs completion-signal latency (MemLeak, avg slowdown)",
			Header: []string{"signal cycles", "blocking slowdown", "non-blocking slowdown"},
		}
		slows := sweepMeans(outs, len(signalLatencies)+1)
		nb := slows[0]
		for i, lat := range signalLatencies {
			label := fmt.Sprintf("%d", lat)
			if lat == -1 {
				label = "0 (ideal)"
			}
			t.Rows = append(t.Rows, []string{label, f2(slows[i+1]), f2(nb)})
		}
		t.Notes = append(t.Notes,
			"non-blocking filtering hides both the handler and the notification round trip (Section 5)")
		return t, nil
	},
}

// expAblationCoreModel cross-validates the two application-core timing models:
// the calibrated rate-based model (used by every experiment above) and the
// dependency-driven detailed model (real ROB, register dependencies, cache
// latencies). Agreement on the workload extremes — which benchmarks are
// memory-bound, which are fast — grounds the rate model's per-profile
// calibration in instruction-level behaviour.
var expAblationCoreModel = experiment{
	id: "ablation-coremodel",
	cells: func(o Options) ([]Cell, error) {
		var cells []Cell
		for _, bench := range trace.SerialNames() {
			cells = append(cells, Cell{
				Label: "coremodel/" + bench,
				Spec: runspec.Spec{Kind: runspec.KindCoreModel, Benchmark: bench,
					Seed: o.Seed, Instrs: o.Instrs},
			})
		}
		return cells, nil
	},
	build: func(o Options, cells []Cell, outs []*system.Outcome) (*Table, error) {
		t := &Table{
			ID:     "ablation-coremodel",
			Title:  "Baseline IPC: rate-based vs dependency-driven core models (4-way OoO)",
			Header: []string{"benchmark", "rate model", "detailed model", "in-order detailed"},
		}
		for i, bench := range trace.SerialNames() {
			cm := outs[i].CoreModel
			t.Rows = append(t.Rows, []string{bench, f2(cm.Rate), f2(cm.Detailed), f2(cm.InOrder)})
		}
		t.Notes = append(t.Notes,
			"the models derive timing independently; both mark mcf memory-bound and bzip/hmmer fast",
			"the detailed model compresses the IPC range: the generator's uniform operand selection yields uniform ILP, whereas the rate model carries per-benchmark calibrated dependency behaviour")
		return t, nil
	},
}
