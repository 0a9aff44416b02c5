package system

import (
	"context"
	"fmt"
	"strconv"

	"fade/internal/core"
	"fade/internal/cpu"
	"fade/internal/fault"
	"fade/internal/isa"
	"fade/internal/metadata"
	"fade/internal/monitor"
	"fade/internal/obs"
	"fade/internal/queue"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/spans"
	"fade/internal/stats"
	"fade/internal/trace"
)

// CoreResult is one application core's view of a run: its private
// (application core, event queue, filtering unit, monitor thread) group
// measured against its own unmonitored baseline. A single-core run has
// exactly one; a CMP run has Spec.AppCores of them.
type CoreResult struct {
	Core int    // core index
	Seed uint64 // trace seed of this core's workload copy

	Cycles         uint64 // cycle at which this core's group drained
	BaselineCycles uint64
	Slowdown       float64 // raw per-core slowdown (no warm-up windowing)

	Instrs          uint64
	MonitoredEvents uint64
	AppIPC          float64

	EvqMax         int
	AppStallCycles uint64
	HandlersRun    uint64
	FilterRatio    float64 // 0 when unaccelerated

	Reports []monitor.Report
}

// Result is the outcome of one simulation. For multicore topologies the
// top-level fields aggregate across cores — counts sum, Cycles covers the
// whole CMP (the slowest core), Slowdown normalizes total cycles to the
// slowest baseline — and Cores carries the per-core sub-results. The
// representative distribution fields (EvqOccupancy, Filter, cache miss
// rates) come from core 0; the cores run identically-configured hardware
// over decorrelated copies of the same workload, so core 0 is
// representative.
type Result struct {
	Benchmark string
	// Config is the run's normalized spec with WallClockMS cleared: exactly
	// the fields its hash covers, so a cached result reports the same
	// Config whatever wall-clock budget its submitter gave.
	Config runspec.Spec

	Cycles         uint64
	BaselineCycles uint64
	Slowdown       float64

	Instrs          uint64
	MonitoredEvents uint64
	AppIPC          float64 // monitored-run application IPC
	BaselineIPC     float64
	MonitoredIPC    float64 // monitored events per cycle (baseline-rate view)

	Filter *core.Stats // nil when unaccelerated; core 0's unit

	EvqOccupancy    *stats.Histogram
	EvqMax          int
	AppStallCycles  uint64
	HandlersRun     uint64
	ClassInstr      map[monitor.Class]float64
	Reports         []monitor.Report
	MDCacheMissRate float64
	MTLBMissRate    float64

	// Cores holds the per-core sub-results in core order.
	Cores []CoreResult

	// Utilization fractions (Fig. 11b): cycles where the application is
	// stalled on a full queue, the monitor side is idle, or both make
	// progress.
	AppIdleFrac  float64
	MonIdleFrac  float64
	BothBusyFrac float64

	// Metrics is the end-of-run snapshot of the run's metrics registry:
	// every component counter under its stable dotted name (see
	// docs/METRICS.md). The typed fields above are conveniences derived
	// from the same underlying counters.
	Metrics *obs.Snapshot
	// Timeline holds cycle-sampled snapshots when Spec.TimelineEvery is
	// set (nil otherwise).
	Timeline []*obs.Snapshot
}

// coreGroup is one application core's private slice of the system: the core
// itself, its event queue, its filtering unit (nil when unaccelerated), and
// the monitor thread draining its software-bound events.
type coreGroup struct {
	idx      int
	seed     uint64
	baseline *BaselineOutcome

	app     *cpu.AppCore
	monCore *cpu.MonitorCore
	fu      *core.FilteringUnit
	evq     *queue.Bounded[isa.Event]
	md      *metadata.State

	// eng is the group's fault injector; nil when the run injects nothing.
	eng *fault.Engine

	arb  *sim.Arbiter
	util *stats.Utilization
	// doneAt, the drain mark, is 0 until the tick (exact or skipped) that
	// empties the group sets it to the first cycle the group is drained.
	// running counts the run's groups not yet drained.
	doneAt  uint64
	running *int
	clock   *sim.Clock
}

// Tick implements sim.Component: the group ticks as its arbiter. No later
// component in a cycle acts on the group, so its post-tick state is its
// state at the top of the next cycle.
func (g *coreGroup) Tick(cycle uint64) {
	g.arb.Tick(cycle)
	g.markDrained(cycle + 1)
}

// QuietTicks implements sim.Sleeper.
func (g *coreGroup) QuietTicks() uint64 { return g.arb.QuietTicks() }

// SkipTicks implements sim.Sleeper. A span can end drained (a filtering
// unit's stall counting out); the clock advances after its components
// skip, so the span ends at Cycle()+n.
func (g *coreGroup) SkipTicks(n uint64) {
	g.arb.SkipTicks(n)
	g.markDrained(g.clock.Cycle() + n)
}

// markDrained sets the drain mark to next once the group is drained.
func (g *coreGroup) markDrained(next uint64) {
	if g.doneAt == 0 && g.drained() {
		g.doneAt = next
		*g.running--
	}
}

// drained reports that the group has no work left anywhere in its pipeline.
func (g *coreGroup) drained() bool {
	return g.app.Done() && g.evq.Empty() && !g.monCore.Busy() && (g.fu == nil || !g.fu.Busy())
}

// runSystem wires the topology of s, a normalized and validated KindRun
// spec, into core groups — one monitor per application core — and drives
// them on the sim scheduler. Each core gets a fresh instance of the
// built-in monitor s names, unless custom is set: then the topology must
// have a single application core, which custom monitors. An aborted run
// returns its partial Result alongside the error (Result.Metrics snapshots
// whatever the run had counted, with the run.aborted gauge set).
func runSystem(ctx context.Context, s runspec.Spec, custom monitor.Monitor) (*Result, error) {
	prof, err := profileOf(s)
	if err != nil {
		return nil, err
	}
	threads := 1
	if prof.Parallel {
		threads = prof.Threads
	}
	mons := []monitor.Monitor{custom}
	if custom == nil {
		mons = make([]monitor.Monitor, s.AppCores)
		for i := range mons {
			mon, err := monitor.New(s.Monitor, threads)
			if err != nil {
				return nil, err
			}
			mons[i] = mon
		}
	} else if s.AppCores > 1 {
		return nil, fmt.Errorf("system: a custom monitor supports single-app-core topologies only (one monitor instance cannot serve %d cores)", s.AppCores)
	}
	single := s.AppCores == 1

	// One group per application core: a decorrelated copy of the workload,
	// its own metadata domain, monitor instance, and fault injector,
	// measured against its own unmonitored baseline.
	groups := make([]*coreGroup, s.AppCores)
	var maxBaseline uint64
	for i := range groups {
		cs := s
		cs.Seed = coreSeed(s.Seed, i)
		baseline, err := runBaseline(ctx, prof, cs)
		if err != nil {
			return nil, err
		}
		maxBaseline = max(maxBaseline, baseline.Cycles)
		md := metadata.NewState()
		mons[i].Init(md)
		src := trace.Open(prof, cs.Seed, s.Instrs)
		defer src.Close()
		app, monCore, fu, evq, err := build(prof, s, src, mons[i], md)
		if err != nil {
			return nil, err
		}
		eng := fault.NewEngine(s.Faults, fault.FoldSeed(s.Faults, s.Seed, i), s.EventQueueCap, s.UnfilteredCap)
		if eng != nil && s.Faults.EventDrop != nil {
			evq.SetDropHook(eng.DropEvent)
		}
		groups[i] = &coreGroup{idx: i, seed: cs.Seed, baseline: baseline,
			app: app, monCore: monCore, fu: fu, evq: evq, md: md, eng: eng}
	}

	reported := s
	reported.WallClockMS = 0
	res := &Result{Benchmark: s.Benchmark, Config: reported, BaselineCycles: maxBaseline}

	// Tracing arms only when the context carries a spans.Trace; an untraced
	// run keeps nil hooks everywhere (docs/TRACING.md). Track allocation
	// order is fixed — scheduler first, then cores in index order — so
	// exports are deterministic.
	tr := spans.FromContext(ctx)
	var schedTrack int32
	var probe *traceProbe
	if tr != nil {
		schedTrack = tr.NewTrack("sim/sched")
		probe = newTraceProbe(tr, groups, single)
	}

	// Every run carries a metrics registry; components expose their
	// counters through obs.Collector and the end-of-run snapshot lands in
	// Result.Metrics. Collection is pull-based, so the simulation pays
	// nothing for it. Single-core keeps the historical un-indexed names;
	// multicore runs index every component name space by core
	// (docs/METRICS.md, "Per-core grammar").
	reg := obs.NewRegistry()
	for _, g := range groups {
		sfx := ""
		if !single {
			sfx = "." + strconv.Itoa(g.idx)
		}
		reg.Register(g.app.MetricsCollector("app" + sfx))
		reg.Register(g.monCore.MetricsCollector("moncore" + sfx))
		reg.Register(g.evq.MetricsCollector("queue.meq" + sfx))
		if g.fu != nil {
			reg.Register(g.fu.MetricsCollector("fu"+sfx, "fsq"+sfx, "queue.ufq"+sfx))
		}
		if g.eng != nil {
			// Registered only under fault injection so fault-free metric
			// dumps keep their historical shape.
			reg.Register(g.eng.Collector("fault" + sfx))
		}
	}
	clock := sim.NewClock()
	reg.Register(obs.CollectorFunc(func(s obs.Sink) {
		s.Counter("sim.cycles", clock.Cycle())
		s.Counter("sim.baseline_cycles", maxBaseline)
	}))
	if tr != nil {
		// spans.* accounting appears only when tracing is armed, so
		// untraced metric dumps keep their historical shape (the same rule
		// as sim.ff.* below).
		reg.Register(tr.Collector())
	}
	var tl *obs.Timeline
	if s.TimelineEvery > 0 {
		tl = &obs.Timeline{Every: s.TimelineEvery}
	}

	// Clock wiring. Fault engines and their probes tick first, so each
	// cycle's fault decisions (stalls, throttles, corruptions) are frozen
	// before any component consults them. Dedicated monitor cores shared
	// between several application cores tick next (consumer before producer
	// across the whole CMP); each group's arbiter then ticks monitor thread
	// (when core-private), filtering unit, and application core in that
	// order.
	for _, g := range groups {
		if g.eng != nil {
			clock.Register(g.eng)
			clock.Register(&faultProbe{eng: g.eng, g: g})
		}
	}
	shared := wireSharedMonCores(clock, s, groups)
	running := len(groups)
	for _, g := range groups {
		g.util = stats.NewUtilization(sim.UtilStates)
		g.running, g.clock = &running, clock
		g.arb = &sim.Arbiter{App: g.app, SMT: s.SMT, Util: g.util}
		// The event queue is sampled at the top of each cycle, before any
		// tick: a change while cycle t ticks is first seen by sample t+1.
		g.evq.RecordOccupancy(func() uint64 { return clock.Cycle() + 1 })
		if g.fu != nil {
			g.arb.FU = g.fu
			g.fu.RecordOccupancy(clock.Cycle)
		}
		switch {
		case shared[g.idx]:
			g.arb.Mon = monBusyView{g.monCore}
		case g.eng != nil:
			g.arb.Mon = stallGate{mc: g.monCore, eng: g.eng}
		default:
			g.arb.Mon = g.monCore
		}
		clock.Register(g)
	}
	if probe != nil {
		// Registered last so it observes each cycle's post-tick state.
		clock.Register(probe)
	}

	sched := &sim.Scheduler{
		Clock:       clock,
		MaxCycles:   s.CycleCap(),
		Trace:       tr,
		TraceTrack:  schedTrack,
		Done:        func() bool { return running == 0 },
		FastForward: s.FastForward,
		Timeline:    tl,
		Registry:    reg,
	}
	if s.FastForward {
		// Fast-forward accounting is observability of the simulator, not of
		// the simulated hardware, and is registered only when the mode is
		// requested so default metric dumps keep their historical shape.
		reg.Register(obs.CollectorFunc(func(s obs.Sink) {
			ff := &sched.FF
			active := 0.0
			if ff.Pinned == "" {
				active = 1
			}
			s.Gauge("sim.ff.active", active)
			s.Counter("sim.ff.jumps", ff.Jumps)
			s.Counter("sim.ff.skipped_cycles", ff.SkippedCycles)
			s.Counter("sim.ff.stop.awake", ff.WakeStops)
			s.Counter("sim.ff.stop.warmup", ff.WarmupStops)
			// The scheduler never pins for "sample" (no statistic is
			// sampled per cycle); the gauge stays, at 0, so dumps keep
			// their shape.
			for _, reason := range []string{"check", "sample", "component"} {
				v := 0.0
				if ff.Pinned == reason {
					v = 1
				}
				s.Gauge("sim.ff.pinned."+reason, v)
			}
		}))
	}
	if single && s.WarmupInstrs > 0 {
		sched.Warmed = func() bool { return groups[0].app.Instrs() >= s.WarmupInstrs }
	}
	sched.Ctx = ctx
	if s.CheckInvariants {
		sched.Check = newInvariantChecker(groups).check
	}
	out := sched.Run()
	probe.flush(out.Cycles)
	for _, g := range groups {
		// The run stopped at the top of out.Cycles, before its sample; the
		// unfiltered queue's source already reads out.Cycles at rest.
		g.evq.StopOccupancy(out.Cycles)
	}
	if !out.Completed {
		// Abort: flush the partial state into the result so callers can
		// persist whatever the run had counted, and surface the structured
		// reason (sim.ErrCanceled, sim.ErrCycleCapExceeded, or a named
		// *sim.InvariantError) alongside it.
		res.Cycles = out.Cycles
		reg.Gauge("run.aborted").Set(1)
		res.Metrics = reg.Snapshot()
		if tl != nil {
			res.Timeline = tl.Points
		}
		return res, fmt.Errorf("system: %s/%s/%s aborted after %d cycles: %w",
			s.Benchmark, s.Monitor, accelLabels[s.Accel], out.Cycles, out.Err)
	}
	for _, g := range groups {
		if g.fu != nil {
			// The unit records no more: keep its distributions in their
			// finished form, the occupied buckets alone.
			g.fu.FlushBurst()
			g.fu.Stats().UnfilteredDistance.Compact()
			g.fu.Stats().BurstSizes.Compact()
		}
	}

	cycles := out.Cycles
	res.Cycles = cycles
	res.Slowdown = float64(cycles) / float64(maxBaseline)
	if single && s.WarmupInstrs > 0 && out.WarmBoundary > 0 && groups[0].baseline.WarmBoundary > 0 &&
		cycles > out.WarmBoundary && maxBaseline > groups[0].baseline.WarmBoundary {
		// Measured-window slowdown: exclude the warm-up region from both
		// the monitored and baseline runs.
		res.Slowdown = float64(cycles-out.WarmBoundary) / float64(maxBaseline-groups[0].baseline.WarmBoundary)
	}

	for _, g := range groups {
		cr := CoreResult{
			Core: g.idx, Seed: g.seed,
			Cycles: g.doneAt, BaselineCycles: g.baseline.Cycles,
			Slowdown:        float64(g.doneAt) / float64(g.baseline.Cycles),
			Instrs:          g.app.Instrs(),
			MonitoredEvents: g.app.MonitoredEvents(),
			AppIPC:          stats.Ratio(g.app.Instrs(), g.doneAt),
			EvqMax:          g.evq.MaxLen(),
			AppStallCycles:  g.app.BackpressureCycles(),
			HandlersRun:     g.monCore.Handled(),
			Reports:         append(g.monCore.Reports(), g.monCore.Finalize()...),
		}
		if g.fu != nil {
			cr.FilterRatio = g.fu.Stats().FilterRatio()
		}
		res.Cores = append(res.Cores, cr)

		res.Instrs += cr.Instrs
		res.MonitoredEvents += cr.MonitoredEvents
		res.AppStallCycles += cr.AppStallCycles
		res.HandlersRun += cr.HandlersRun
		res.Reports = append(res.Reports, cr.Reports...)
		if cr.EvqMax > res.EvqMax {
			res.EvqMax = cr.EvqMax
		}
	}
	res.AppIPC = stats.Ratio(res.Instrs, cycles)
	res.BaselineIPC = stats.Ratio(res.Instrs, maxBaseline)
	res.MonitoredIPC = stats.Ratio(res.MonitoredEvents, maxBaseline)
	res.EvqOccupancy = groups[0].evq.Occupancy()
	res.EvqOccupancy.Compact()
	if single {
		res.ClassInstr = groups[0].monCore.ClassInstr()
	} else {
		res.ClassInstr = make(map[monitor.Class]float64)
		for _, g := range groups {
			for class, v := range g.monCore.ClassInstr() {
				res.ClassInstr[class] += v
			}
		}
	}
	if fu := groups[0].fu; fu != nil {
		// A copy, not fu.Stats(): that interior pointer would keep the
		// whole unit (shadow metadata, MD cache, queues) alive with the
		// Result.
		st := *fu.Stats()
		res.Filter = &st
		res.MDCacheMissRate = fu.MDCache().MissRate()
		res.MTLBMissRate = fu.MTLB().MissRate()
	}
	util := groups[0].util
	for _, g := range groups[1:] {
		util.Add(g.util)
	}
	res.AppIdleFrac = util.Fraction(sim.AppIdle)
	res.MonIdleFrac = util.Fraction(sim.MonIdle)
	res.BothBusyFrac = util.Fraction(sim.BothBusy)

	// End-of-run derived gauges, then the final snapshot. These gauges are
	// only meaningful once the run has completed, so timeline points do not
	// carry them.
	reg.Gauge("sim.slowdown").Set(res.Slowdown)
	reg.Gauge("sim.app_ipc").Set(res.AppIPC)
	reg.Gauge("sim.baseline_ipc").Set(res.BaselineIPC)
	reg.Gauge("sim.monitored_ipc").Set(res.MonitoredIPC)
	reg.Gauge("sim.util.app_idle").Set(res.AppIdleFrac)
	reg.Gauge("sim.util.mon_idle").Set(res.MonIdleFrac)
	reg.Gauge("sim.util.both_busy").Set(res.BothBusyFrac)
	if !single {
		for _, cr := range res.Cores {
			p := "sim.core." + strconv.Itoa(cr.Core)
			reg.Gauge(p + ".cycles").Set(float64(cr.Cycles))
			reg.Gauge(p + ".slowdown").Set(cr.Slowdown)
			reg.Gauge(p + ".baseline_cycles").Set(float64(cr.BaselineCycles))
		}
	}
	res.Metrics = reg.Snapshot()
	if tl != nil {
		res.Timeline = tl.Points
	}
	return res, nil
}

// wireSharedMonCores registers a sharedMonCore component for every
// dedicated monitor core assigned more than one application core, and
// reports which groups' monitor threads are ticked by one (their arbiters
// then observe the thread without ticking it). Groups whose monitor core is
// private — and every SMT group — tick their thread in their own arbiter.
func wireSharedMonCores(clock *sim.Clock, s runspec.Spec, groups []*coreGroup) map[int]bool {
	shared := make(map[int]bool)
	if s.SMT {
		return shared
	}
	// Monitor threads are assigned to monitor cores round-robin.
	byMon := make([][]*coreGroup, s.MonCores)
	for _, g := range groups {
		m := g.idx % s.MonCores
		byMon[m] = append(byMon[m], g)
	}
	for _, gs := range byMon {
		if len(gs) <= 1 {
			continue
		}
		mc := &sharedMonCore{}
		for _, g := range gs {
			var th sim.MonThread = g.monCore
			if g.eng != nil {
				th = stallGate{mc: g.monCore, eng: g.eng}
			}
			mc.threads = append(mc.threads, th)
			shared[g.idx] = true
		}
		clock.Register(mc)
	}
	return shared
}

// sharedMonCore fine-grained-multithreads one dedicated monitor core among
// the monitor threads of several application cores: each cycle the core
// runs the next busy thread in round-robin order. Idle cycles are charged
// to the thread at the rotation head so per-thread cycle accounting stays
// exhaustive.
type sharedMonCore struct {
	threads []sim.MonThread
	next    int
}

// Tick implements sim.Component.
func (s *sharedMonCore) Tick(uint64) {
	n := len(s.threads)
	for k := 0; k < n; k++ {
		i := (s.next + k) % n
		if s.threads[i].Busy() {
			s.threads[i].TickShare(1)
			s.next = (i + 1) % n
			return
		}
	}
	s.threads[s.next].TickShare(1)
	s.next = (s.next + 1) % n
}

// QuietTicks implements sim.Sleeper. The shared core sleeps only when every
// thread is idle (any busy thread may complete a handler or dispatch an
// event on its very next turn, and the rotation makes per-thread crunch
// spans non-uniform, so busy cores run cycle-exactly); an idle thread's
// ticks do not depend on whose turn it is, so the core is then quiet for
// the shortest of their full-share spans.
func (s *sharedMonCore) QuietTicks() uint64 {
	quiet := uint64(sim.QuietForever)
	for _, th := range s.threads {
		if th.Busy() {
			return 0
		}
		quiet = min(quiet, th.QuietTicks(1))
	}
	return quiet
}

// SkipTicks implements sim.Sleeper, replaying n all-idle ticks: Tick
// charges each idle cycle to the thread at the rotation head and advances
// the rotation, so the bulk path deals each thread its round-robin share of
// the span and leaves the rotation where n exact ticks would have.
func (s *sharedMonCore) SkipTicks(n uint64) {
	t := uint64(len(s.threads))
	base, extra := n/t, n%t
	for k := uint64(0); k < t; k++ {
		cnt := base
		if k < extra {
			cnt++
		}
		if cnt > 0 {
			s.threads[(uint64(s.next)+k)%t].SkipTicks(cnt, 1)
		}
	}
	s.next = int((uint64(s.next) + n) % t)
}

// monBusyView exposes a monitor thread's busy state to its group's arbiter
// while the thread itself is ticked by a sharedMonCore.
type monBusyView struct{ mc *cpu.MonitorCore }

func (v monBusyView) TickShare(float64) {}
func (v monBusyView) Busy() bool        { return v.mc.Busy() }

// QuietTicks and SkipTicks implement sim.MonThread trivially: the view
// never ticks the thread (the sharedMonCore owning it reports its wake), so
// it is quiet forever and skipping is a no-op.
func (v monBusyView) QuietTicks(float64) uint64 { return sim.QuietForever }
func (v monBusyView) SkipTicks(uint64, float64) {}

// build wires one core group's components.
func build(prof *trace.Profile, s runspec.Spec, src trace.Source, mon monitor.Monitor, md *metadata.State) (*cpu.AppCore, *cpu.MonitorCore, *core.FilteringUnit, *queue.Bounded[isa.Event], error) {
	kind := coreKinds[s.Core]
	evq := queue.NewBounded[isa.Event](s.EventQueueCap)
	app := cpu.NewAppCore(kind, prof, src, mon, evq)

	if s.Accel == runspec.AccelNone {
		monCore := cpu.NewMonitorCoreDirect(kind, mon, md, evq)
		return app, monCore, nil, evq, nil
	}

	mode := core.NonBlocking
	if s.Accel == runspec.AccelBlocking {
		mode = core.Blocking
	}
	ufq := queue.NewBounded[core.Unfiltered](s.UnfilteredCap)
	coreCfg := core.DefaultConfig(mode)
	if s.MDCacheBytes > 0 {
		coreCfg.MDCache.SizeBytes = s.MDCacheBytes
	}
	switch {
	case s.BlockingSignalCycles > 0:
		coreCfg.BlockingSignalLatency = s.BlockingSignalCycles
	case s.BlockingSignalCycles == -1:
		coreCfg.BlockingSignalLatency = 0
	}
	fu := core.New(coreCfg, md, evq, ufq, nil)
	// Monitors program the accelerator through its memory-mapped window,
	// as their real setup code would (Section 4.1).
	if err := mon.Program(core.MMIOProgrammer(fu)); err != nil {
		return nil, nil, nil, nil, err
	}
	critRegs := mode == core.Blocking
	monCore := cpu.NewMonitorCoreFADE(kind, mon, md, ufq, fu, critRegs)
	return app, monCore, fu, evq, nil
}

// coreSeed derives application core i's trace seed from the spec seed.
// Core 0 uses the seed unchanged, so a 1-core topology reproduces the
// single-core instruction stream exactly; higher cores perturb it with a
// splitmix-style odd constant so the multiprogrammed copies decorrelate.
func coreSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}
