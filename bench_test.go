package fade

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md §3 maps experiment ids to paper
// artifacts). Each benchmark regenerates its artifact at a reduced
// simulation scale and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. cmd/fadebench prints the full tables at
// publication scale.

import (
	"context"
	"strconv"
	"testing"

	"fade/internal/trace"
)

// benchInstrs keeps individual benchmark iterations tractable; the shapes
// (who wins, by what factor) are stable at this scale.
const benchInstrs = 60_000

func benchOpts() ExperimentOptions {
	return ExperimentOptions{Instrs: benchInstrs, Seed: 1}
}

func parseCell(b *testing.B, cell string) float64 {
	b.Helper()
	cell = trimPct(cell)
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func trimPct(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '%' || s[len(s)-1] == 'x') {
		s = s[:len(s)-1]
	}
	return s
}

// BenchmarkFig2MonitoredIPC regenerates Fig. 2(a): per-monitor monitored
// IPC on the aggressive 4-way OoO core.
func BenchmarkFig2MonitoredIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := RunExperiment("fig2a", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tbl.Rows {
			b.ReportMetric(parseCell(b, row[2]), row[0]+"_monIPC")
		}
	}
}

// BenchmarkFig2PerBenchmark regenerates Fig. 2(b,c).
func BenchmarkFig2PerBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig2bc", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3QueueOccupancy regenerates Fig. 3(a,b): infinite event
// queue occupancy CDFs.
func BenchmarkFig3QueueOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig3ab", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3QueueSize regenerates Fig. 3(c): slowdown vs event-queue
// size for MemLeak.
func BenchmarkFig3QueueSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := RunExperiment("fig3c", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := tbl.Rows[len(tbl.Rows)-1] // gmean row
		b.ReportMetric(parseCell(b, last[1]), "gmean_32K")
		b.ReportMetric(parseCell(b, last[2]), "gmean_32")
	}
}

// BenchmarkFig4Breakdown regenerates Fig. 4(a): monitor execution-time
// breakdown into CC/RU/stack-update handling.
func BenchmarkFig4Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig4a", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Distance regenerates Fig. 4(b): the CDF of distances
// between unfiltered events under MemLeak.
func BenchmarkFig4Distance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig4b", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Bursts regenerates Fig. 4(c): unfiltered burst sizes.
func BenchmarkFig4Bursts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig4c", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2FilteringEfficiency regenerates Table 2: the fraction of
// instruction event handlers FADE elides, per monitor.
func BenchmarkTable2FilteringEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := RunExperiment("table2", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tbl.Rows {
			b.ReportMetric(parseCell(b, row[1]), row[0]+"_filter_pct")
		}
	}
}

// BenchmarkFig9Slowdown regenerates Fig. 9: FADE vs unaccelerated
// slowdowns on the single-core dual-threaded 4-way OoO system.
func BenchmarkFig9Slowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := RunExperiment("fig9", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := tbl.Rows[len(tbl.Rows)-1] // overall mean
		b.ReportMetric(parseCell(b, last[2]), "unaccelerated_avg")
		b.ReportMetric(parseCell(b, last[3]), "fade_avg")
	}
}

// BenchmarkFig10CoreTypes regenerates Fig. 10: sensitivity to the core
// microarchitecture (in-order / 2-way / 4-way OoO).
func BenchmarkFig10CoreTypes(b *testing.B) {
	o := benchOpts()
	o.Instrs = 25_000 // 5 monitors x 3 cores x 2 systems x full suites
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig10", o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11SingleVsTwoCore regenerates Fig. 11(a).
func BenchmarkFig11SingleVsTwoCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig11a", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Utilization regenerates Fig. 11(b): two-core utilization
// breakdown.
func BenchmarkFig11Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig11b", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11NonBlocking regenerates Fig. 11(c): blocking vs
// non-blocking FADE.
func BenchmarkFig11NonBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := RunExperiment("fig11c", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tbl.Rows {
			b.ReportMetric(parseCell(b, row[3]), row[0]+"_NB_benefit")
		}
	}
}

// BenchmarkSynthArea regenerates the Section 7.6 area/power estimates.
func BenchmarkSynthArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := RunExperiment("synth", ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = tbl
	}
}

// Microbenchmarks of the simulation substrate itself.

// BenchmarkFilteringUnitThroughput measures raw accelerator throughput on
// an all-filterable event stream (the design's peak of one event/cycle).
func BenchmarkFilteringUnitThroughput(b *testing.B) {
	md := NewMetadataState()
	fu, evq, _ := NewFilteringUnit(false, md)
	fu.Inv.Set(0, 0)
	fu.Table.Set(1, Entry{
		S1: OperandRule{Valid: true, Mem: true, MDBytes: 1, Mask: 0xFF, INVid: 0},
		CC: true,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evq.Push(Event{ID: 1, Addr: 0x1000, Seq: uint64(i)})
		fu.Tick(uint64(i))
	}
	b.ReportMetric(float64(fu.Stats().Filtered())/float64(b.N), "filtered_per_event")
}

// BenchmarkTraceGeneration measures synthetic workload generation speed.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, _ := LookupProfile("gcc")
	g := NewTraceSource(prof, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("unbounded source ended")
		}
	}
}

// BenchmarkTraceReplay measures the trace store's replay cursor, the
// source every simulation but a stream's first reads: one op is one
// instruction decoded from a stored gcc trace (reopened, never
// regenerated, at its end). Compare ns/instr with
// BenchmarkTraceGeneration's ns/op.
func BenchmarkTraceReplay(b *testing.B) {
	prof, _ := LookupProfile("gcc")
	const n = 300_000
	src := trace.Open(prof, 1, n)
	for { // the first read generates and stores the trace
		if _, ok := src.Next(); !ok {
			break
		}
	}
	src.Close()
	src = trace.Open(prof, 1, n)
	defer func() { src.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			src.Close()
			src = trace.Open(prof, 1, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
}

// BenchmarkEndToEndSimulation measures whole-system simulation speed in
// application instructions per wall-clock operation.
func BenchmarkEndToEndSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := Spec{Benchmark: "astar", Monitor: "MemLeak", Seed: uint64(i + 1), Instrs: 20_000}
		if _, err := Exec(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastForward measures the event-driven skip-ahead win on a
// quiescence-heavy workload: blocking FADE with a raised completion-signal
// latency parks the application core for hundreds of cycles per monitored
// event, so nearly all simulated time is quiescent span. The exact/fast
// pair shares one configuration; results are byte-identical (the system
// differential tests pin that), so the ratio of their ns/op is pure
// simulator speedup. cycles_per_us reports simulated throughput directly.
func BenchmarkFastForward(b *testing.B) {
	for _, mode := range []struct {
		name string
		ff   bool
	}{{"exact", false}, {"fast", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				out, err := Exec(context.Background(), Spec{
					Benchmark: "astar", Monitor: "MemLeak", Accel: AccelBlocking, Seed: 1, Instrs: 100_000,
					BlockingSignalCycles: 500, MaxCycles: 500_000_000, FastForward: mode.ff,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles += out.Result.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.Elapsed().Microseconds()+1), "cycles_per_us")
		})
	}
}

// BenchmarkSystemRunAllocs guards the hot-path allocation diet: one fixed
// system run with allocation reporting. The fixed seed means the baseline
// simulation is cached after the first iteration, so allocs/op converges on
// the monitored run's own footprint — the event path from AppCore through
// the FilteringUnit to the monitor core, plus per-run setup.
func BenchmarkSystemRunAllocs(b *testing.B) { benchRunAllocs(b, "MemLeak") }

// BenchmarkSystemRunAllocsAddrCheck is the same guard for a monitor that
// marks its static application space valid before the run. That bulk
// initialization shares read-only uniform metadata pages instead of
// filling private ones, so allocating shadow pages per run again shows up
// here as hundreds of extra allocations.
func BenchmarkSystemRunAllocsAddrCheck(b *testing.B) { benchRunAllocs(b, "AddrCheck") }

func benchRunAllocs(b *testing.B, monitor string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Spec{Benchmark: "astar", Monitor: monitor, Seed: 12345, Instrs: 20_000}
		if _, err := Exec(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}
