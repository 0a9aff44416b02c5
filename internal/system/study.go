package system

import (
	"context"
	"fmt"

	"fade/internal/cpu"
	"fade/internal/isa"
	"fade/internal/monitor"
	"fade/internal/obs"
	"fade/internal/queue"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/stats"
	"fade/internal/trace"
)

// QueueStudy reproduces the Section 3 characterization methodology: the
// application core produces monitored events into an event queue that is
// drained by an idealized filtering accelerator consuming exactly one event
// per cycle (Section 3.2's "filtering accelerator that processes one event
// per cycle", with an infinite or finite queue). It reports the monitored
// load (Fig. 2) and queue occupancy distribution (Fig. 3).
type QueueStudy struct {
	Benchmark string
	Monitor   string

	Cycles          uint64
	BaselineCycles  uint64
	Slowdown        float64 // vs. the unmonitored baseline (Fig. 3c)
	Instrs          uint64
	MonitoredEvents uint64
	AppIPC          float64 // total application IPC (Fig. 2 bar height)
	MonitoredIPC    float64 // monitored instructions per cycle (Fig. 2 dark bar)
	Occupancy       *stats.Histogram
	MaxOccupancy    int

	// Metrics is the end-of-run registry snapshot (app.* and queue.meq.*
	// name spaces plus the sim.* run summary; see docs/METRICS.md).
	Metrics *obs.Snapshot
}

// runQueueStudy simulates a KindStudy spec: its benchmark under the
// named monitor with an ideal 1-event/cycle drain and an event queue of
// EventQueueCap entries (queue.Unbounded for the infinite-queue analysis).
// The run aborts with an error wrapping sim.ErrCanceled within one
// scheduler checkpoint interval of ctx being canceled.
func runQueueStudy(ctx context.Context, s runspec.Spec) (*QueueStudy, error) {
	prof, ok := trace.Lookup(s.Benchmark)
	if !ok {
		return nil, fmt.Errorf("system: unknown benchmark %q", s.Benchmark)
	}
	if err := validateQueueCap("event queue", s.EventQueueCap); err != nil {
		return nil, err
	}
	threads := 1
	if prof.Parallel {
		threads = prof.Threads
	}
	mon, err := monitor.New(s.Monitor, threads)
	if err != nil {
		return nil, err
	}
	// The study runs under the default cycle cap, and measures against
	// the plain profile's baseline: MaxCycles, WarmupInstrs and Inject do
	// not apply to it.
	maxCycles := runspec.DefaultMaxCycles(s.Instrs)
	baseline, err := runBaseline(ctx, prof, runspec.Spec{Core: s.Core, Seed: s.Seed, Instrs: s.Instrs})
	if err != nil {
		return nil, err
	}

	src := trace.Open(prof, s.Seed, s.Instrs)
	defer src.Close()
	evq := queue.NewBounded[isa.Event](s.EventQueueCap)
	app := cpu.NewAppCore(coreKinds[s.Core], prof, src, mon, evq)

	reg := obs.NewRegistry()
	reg.Register(app.MetricsCollector("app"))
	reg.Register(evq.MetricsCollector("queue.meq"))
	clock := sim.NewClock()
	reg.Register(obs.CollectorFunc(func(s obs.Sink) {
		s.Counter("sim.cycles", clock.Cycle())
		s.Counter("sim.baseline_cycles", baseline.Cycles)
	}))
	// Consumer before producer: the ideal accelerator drains one event per
	// cycle ahead of the core's enqueues.
	clock.Register(sim.ComponentFunc(func(uint64) { evq.Pop() }))
	clock.Register(&sim.Arbiter{App: app})
	// The queue is sampled at the top of each cycle, before any tick.
	evq.RecordOccupancy(func() uint64 { return clock.Cycle() + 1 })
	sched := &sim.Scheduler{Clock: clock, MaxCycles: maxCycles, Ctx: ctx,
		Done: func() bool { return app.Done() && evq.Empty() }}
	out := sched.Run()
	evq.StopOccupancy(out.Cycles)
	if !out.Completed {
		return nil, fmt.Errorf("system: queue study for %s/%s aborted after %d cycles: %w", s.Benchmark, s.Monitor, out.Cycles, out.Err)
	}
	cycles := out.Cycles

	qs := &QueueStudy{
		Benchmark:       s.Benchmark,
		Monitor:         s.Monitor,
		Cycles:          cycles,
		BaselineCycles:  baseline.Cycles,
		Slowdown:        stats.Ratio(cycles, baseline.Cycles),
		Instrs:          app.Instrs(),
		MonitoredEvents: app.MonitoredEvents(),
		AppIPC:          stats.Ratio(app.Instrs(), baseline.Cycles),
		MonitoredIPC:    stats.Ratio(app.MonitoredEvents(), baseline.Cycles),
		Occupancy:       evq.Occupancy(),
		MaxOccupancy:    evq.MaxLen(),
	}
	qs.Occupancy.Compact()
	reg.Gauge("sim.slowdown").Set(qs.Slowdown)
	reg.Gauge("sim.app_ipc").Set(qs.AppIPC)
	reg.Gauge("sim.monitored_ipc").Set(qs.MonitoredIPC)
	qs.Metrics = reg.Snapshot()
	return qs, nil
}
