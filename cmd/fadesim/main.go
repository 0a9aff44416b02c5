// Command fadesim runs one monitoring-system simulation and prints a full
// report: slowdown versus the unmonitored baseline, filtering statistics,
// queue behaviour, and any detections the monitor raised.
//
// With -metrics the run's full metrics snapshot (see docs/METRICS.md) is
// written in the Prometheus text exposition format; -timeline records a
// cycle-sampled JSONL telemetry stream of the same registry.
//
// SIGINT/SIGTERM cancel the simulation at the next scheduler checkpoint:
// the run aborts with fade.ErrCanceled, the partial metrics and timeline
// collected so far are still flushed to the -metrics/-timeline sinks, and
// the process exits non-zero.
//
// Usage:
//
//	fadesim -bench astar -monitor MemLeak -accel fade -core 4way -topology single
//	fadesim -bench mcf -metrics out.prom -timeline out.jsonl
//	fadesim -bench astar -check -fault-stall severe -fault-drop 0.001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fade"
	"fade/internal/fault"
	"fade/internal/spans"
	"fade/internal/system"
)

func main() {
	os.Exit(run())
}

// cli is fadesim's command line: the run spec most flags fill in
// directly, the flags that map onto it indirectly, and the output sinks
// and profilers, which do not change the run.
type cli struct {
	spec               fade.Spec
	topology           string
	appCores, monCores int
	wallClock          time.Duration
	leaks, wild        float64
	faults             fault.Knobs

	list                              bool
	metricsAt, tlAt, traceAt, traceJL string
	traceCap                          int
	cpuProf, memProf                  string
}

// newCLI registers fadesim's flags on fs.
func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{}
	s := &c.spec
	fs.StringVar(&s.Benchmark, "bench", "astar", "benchmark profile (see -list)")
	fs.StringVar(&s.Monitor, "monitor", "MemLeak", "monitor: AddrCheck|MemCheck|TaintCheck|MemLeak|AtomCheck")
	fs.StringVar(&s.Accel, "accel", "fade", "acceleration: none|blocking|fade")
	fs.StringVar(&s.Core, "core", "4way", "core type: inorder|2way|4way")
	fs.StringVar(&c.topology, "topology", "single", "topology: single|two (ignored when -app-cores is set)")
	fs.IntVar(&c.appCores, "app-cores", 0, "CMP: number of application cores (0 = use -topology)")
	fs.IntVar(&c.monCores, "mon-cores", 0, "CMP: dedicated monitor cores (default: one per application core)")
	fs.Uint64Var(&s.Instrs, "instrs", 400_000, "application instructions to simulate")
	fs.Uint64Var(&s.Seed, "seed", 1, "random seed")
	fs.IntVar(&s.EventQueueCap, "evq", 32, "event queue entries")
	fs.IntVar(&s.UnfilteredCap, "ufq", 16, "unfiltered event queue entries")
	fs.IntVar(&s.MDCacheBytes, "mdcache", 0, "MD cache size in bytes (0 = paper's 4KB)")
	fs.Uint64Var(&s.WarmupInstrs, "warmup", 0, "exclude the first N instructions from the slowdown measurement")
	fs.Float64Var(&c.leaks, "inject-leaks", 0, "fraction of frees turned into leaks (bug injection)")
	fs.Float64Var(&c.wild, "inject-wild", 0, "wild accesses per 1000 instructions (bug injection)")
	fs.BoolVar(&c.list, "list", false, "list benchmarks and monitors, then exit")

	fs.BoolVar(&s.CheckInvariants, "check", false, "run the per-cycle invariant checker; a violation aborts the run with the invariant named")
	fs.BoolVar(&s.FastForward, "fast-forward", true, "skip ahead through quiescent cycle spans (results are byte-identical; -check and fault injection force cycle-exact execution)")
	fs.Uint64Var(&s.MaxCycles, "max-cycles", 0, "abort (non-silently) if the run exceeds this many cycles (0 = derived default)")
	fs.DurationVar(&c.wallClock, "wall-clock", 0, "abort the run after this much wall-clock time (0 = unlimited)")

	fs.Uint64Var(&c.faults.Seed, "fault-seed", 0, "seed of the fault-injector RNG streams (0 = derive from -seed)")
	fs.StringVar(&c.faults.Stall, "fault-stall", "none", "monitor stall-burst severity: none|mild|moderate|severe")
	fs.Float64Var(&c.faults.MEQPressure, "fault-meq", 0, "inject MEQ pressure bursts shrinking effective capacity by this factor in (0,1]")
	fs.Float64Var(&c.faults.UFQPressure, "fault-ufq", 0, "inject UFQ pressure bursts shrinking effective capacity by this factor in (0,1]")
	fs.Float64Var(&c.faults.DropRate, "fault-drop", 0, "event-drop probe: silently drop monitored events with this probability")
	fs.Float64Var(&c.faults.CorruptGap, "fault-corrupt", 0, "metadata-corruption probe: mean cycles between shadow-memory bit flips (0 = off)")

	fs.StringVar(&c.metricsAt, "metrics", "", "write the run's metrics as a Prometheus text exposition to this file")
	fs.StringVar(&c.tlAt, "timeline", "", "write cycle-sampled JSONL telemetry to this file")
	fs.Uint64Var(&s.TimelineEvery, "timeline-every", 0, "cycles between timeline samples (default 1000 when -timeline is set)")
	fs.StringVar(&c.traceAt, "trace", "", "write the run's span trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
	fs.StringVar(&c.traceJL, "trace-jsonl", "", "write the run's span trace as one-span-per-line JSONL to this file")
	fs.IntVar(&c.traceCap, "trace-cap", 1<<16, "span ring capacity when tracing; oldest spans are dropped on overflow")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a pprof heap profile at exit to this file")
	return c
}

// specFromFlags parses a fadesim command line into the run it describes.
func specFromFlags(args []string) (fade.Spec, error) {
	fs := flag.NewFlagSet("fadesim", flag.ContinueOnError)
	c := newCLI(fs)
	if err := fs.Parse(args); err != nil {
		return fade.Spec{}, err
	}
	return c.runSpec()
}

// runSpec completes the spec with the flags that map onto it indirectly.
func (c *cli) runSpec() (fade.Spec, error) {
	s := c.spec
	if err := s.Validate(); err != nil {
		return s, err
	}
	if c.tlAt != "" && s.TimelineEvery == 0 {
		s.TimelineEvery = 1000
	}
	// Rounded up: a sub-millisecond budget must not read as "unlimited".
	s.WallClockMS = int64((c.wallClock + time.Millisecond - 1) / time.Millisecond)
	switch {
	case c.appCores > 0:
		s.AppCores, s.MonCores = c.appCores, c.monCores
		if s.MonCores == 0 {
			s.MonCores = c.appCores
		}
	case c.topology == "single":
	case c.topology == "two":
		s.AppCores, s.MonCores = 1, 1
	default:
		return s, fmt.Errorf("unknown -topology %q", c.topology)
	}
	if c.leaks > 0 || c.wild > 0 {
		s.Inject = &fade.Inject{LeakFrac: c.leaks, WildAccessPer1K: c.wild}
	}
	var err error
	s.Faults, err = c.faults.Plan()
	return s, err
}

// run holds the whole program so the deferred signal cleanup executes and
// the exit code can express how the run ended (0 ok, 1 error, 2 canceled).
func run() int {
	c := newCLI(flag.CommandLine)
	flag.Parse()

	if c.list {
		fmt.Println("serial benchmarks:  ", strings.Join(fade.Benchmarks(), " "))
		fmt.Println("parallel benchmarks:", strings.Join(fade.ParallelBenchmarks(), " "))
		fmt.Println("monitors:           ", strings.Join(fade.MonitorNames(), " "))
		return 0
	}
	spec, err := c.runSpec()
	if err != nil {
		fatal("%v", err)
	}

	if c.cpuProf != "" {
		pf, err := os.Create(c.cpuProf)
		if err != nil {
			fatal("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal("-cpuprofile: %v", err)
		}
	}

	// SIGINT/SIGTERM cancel the run at the next scheduler checkpoint; the
	// partial result still flows to the sinks below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// A run traces exactly when a sink asks for the trace; the trace ID is
	// derived from the run identity so same-seed cycle-domain exports are
	// byte-identical (wall spans carry real timestamps and are not).
	var tr *spans.Trace
	if c.traceAt != "" || c.traceJL != "" {
		tr = spans.New(fmt.Sprintf("%s-%s-seed%d", spec.Benchmark, spec.Monitor, spec.Seed), c.traceCap)
		ctx = spans.NewContext(ctx, tr)
	}

	wallStart := time.Now()
	out, err := fade.Exec(ctx, spec)
	var res *fade.Result
	if out != nil {
		res = out.Result
	}
	if tr != nil {
		tr.Wall(spans.NameCLIRun, wallStart, time.Now(), spans.Str("bench", spec.Benchmark), spans.None)
	}
	if c.cpuProf != "" {
		pprof.StopCPUProfile()
	}
	code := 0
	switch {
	case err == nil:
		printResult(res)
	case errors.Is(err, fade.ErrCanceled):
		code = 2
		fmt.Fprintf(os.Stderr, "fadesim: %v\n", err)
	default:
		code = 1
		fmt.Fprintf(os.Stderr, "fadesim: %v\n", err)
	}

	// Flush the sinks even after an abort: a canceled or invariant-failed
	// run still wrote everything it observed into the registry (plus the
	// run.aborted marker), and partial telemetry is exactly what a
	// post-mortem needs.
	if res != nil {
		cell := spec.Benchmark + "/" + spec.Monitor
		if c.metricsAt != "" {
			labels := []fade.MetricLabel{
				{Key: "bench", Value: spec.Benchmark}, {Key: "monitor", Value: spec.Monitor}, {Key: "accel", Value: spec.Accel},
			}
			if werr := writeFile(c.metricsAt, func(w *os.File) error {
				return fade.WriteMetrics(w, []fade.LabeledSnapshot{{Labels: labels, Snap: res.Metrics}})
			}); werr != nil {
				fmt.Fprintf(os.Stderr, "fadesim: -metrics: %v\n", werr)
				code = 1
			}
		}
		if c.tlAt != "" {
			if werr := writeFile(c.tlAt, func(w *os.File) error {
				return fade.WriteTimeline(w, cell, res.Timeline)
			}); werr != nil {
				fmt.Fprintf(os.Stderr, "fadesim: -timeline: %v\n", werr)
				code = 1
			}
		}
	}
	// Trace sinks flush even after an abort — the partial trace (including
	// the sim.abort instant) is the post-mortem artifact.
	if tr != nil {
		if c.traceAt != "" {
			if werr := writeFile(c.traceAt, func(w *os.File) error {
				return spans.WriteChromeJSON(w, tr)
			}); werr != nil {
				fmt.Fprintf(os.Stderr, "fadesim: -trace: %v\n", werr)
				code = 1
			}
		}
		if c.traceJL != "" {
			if werr := writeFile(c.traceJL, func(w *os.File) error {
				return spans.WriteJSONL(w, tr)
			}); werr != nil {
				fmt.Fprintf(os.Stderr, "fadesim: -trace-jsonl: %v\n", werr)
				code = 1
			}
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "fadesim: trace ring overflowed: %d oldest spans dropped (raise -trace-cap)\n", d)
		}
	}
	if c.memProf != "" {
		if werr := writeFile(c.memProf, func(w *os.File) error {
			runtime.GC()
			return pprof.Lookup("heap").WriteTo(w, 0)
		}); werr != nil {
			fmt.Fprintf(os.Stderr, "fadesim: -memprofile: %v\n", werr)
			code = 1
		}
	}
	return code
}

// writeFile creates path and runs fn over it, folding in the close error.
func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printResult(r *fade.Result) {
	fmt.Printf("benchmark        %s\n", r.Benchmark)
	fmt.Printf("monitor          %s\n", r.Config.Monitor)
	topology, core, accel := system.Labels(r.Config)
	fmt.Printf("system           %s, %s, %s\n", topology, core, accel)
	fmt.Printf("instructions     %d\n", r.Instrs)
	fmt.Printf("monitored events %d (%.2f per instr)\n", r.MonitoredEvents,
		float64(r.MonitoredEvents)/float64(r.Instrs))
	fmt.Printf("baseline cycles  %d (IPC %.2f)\n", r.BaselineCycles, r.BaselineIPC)
	fmt.Printf("monitored cycles %d (IPC %.2f)\n", r.Cycles, r.AppIPC)
	fmt.Printf("slowdown         %.2fx\n", r.Slowdown)
	if len(r.Cores) > 1 {
		for _, c := range r.Cores {
			fmt.Printf("  core %-2d        cycles %d (baseline %d), slowdown %.2fx, instrs %d, handlers %d\n",
				c.Core, c.Cycles, c.BaselineCycles, c.Slowdown, c.Instrs, c.HandlersRun)
		}
	}
	fmt.Printf("event queue      max occupancy %d, producer stall cycles %d\n", r.EvqMax, r.AppStallCycles)
	fmt.Printf("handlers run     %d\n", r.HandlersRun)
	if f := r.Filter; f != nil {
		fmt.Printf("filtering        %.1f%% of %d instruction events (CC %d, RU %d, partial %d)\n",
			100*f.FilterRatio(), f.InstrEvents, f.FilteredCC, f.FilteredRU, f.PartialShort)
		fmt.Printf("unfiltered sent  %d (mean burst %.1f, stack events %d, high-level %d)\n",
			f.UnfilteredSent, f.BurstSizes.Mean(), f.StackEvents, f.HighLevelEvents)
		fmt.Printf("FU stalls        mdcache %d, mtlb %d, blocked %d, drain %d, suu %d, enqueue %d, fsq %d\n",
			f.MDCacheStalls, f.MTLBStalls, f.BlockedCycles, f.DrainCycles, f.SUUCycles, f.EnqueueStalls, f.FSQStalls)
		fmt.Printf("MD cache         miss rate %.3f; M-TLB miss rate %.4f\n", r.MDCacheMissRate, r.MTLBMissRate)
	}
	fmt.Printf("utilization      app-idle %.0f%%, monitor-idle %.0f%%, both-busy %.0f%%\n",
		100*r.AppIdleFrac, 100*r.MonIdleFrac, 100*r.BothBusyFrac)
	if len(r.Reports) > 0 {
		fmt.Printf("detections       %d\n", len(r.Reports))
		max := len(r.Reports)
		if max > 10 {
			max = 10
		}
		for _, rep := range r.Reports[:max] {
			fmt.Printf("  %s\n", rep)
		}
		if len(r.Reports) > max {
			fmt.Printf("  ... and %d more\n", len(r.Reports)-max)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fadesim: "+format+"\n", args...)
	os.Exit(1)
}
