package cpu

import (
	"fade/internal/isa"
	"fade/internal/mem"
	"fade/internal/monitor"
	"fade/internal/obs"
	"fade/internal/queue"
	"fade/internal/sim"
	"fade/internal/trace"
)

// hotter is implemented by generators that expose phase information; the
// core uses it to pick the hazard-CPI component for the current region.
type hotter interface{ Hot() bool }

// AppCore models the application core: it retires the instruction stream,
// runs memory references through its cache hierarchy, and enqueues
// monitored events. When the event queue is full the core stalls — the ROB
// fills and retirement stops (producer backpressure, Section 3.2).
type AppCore struct {
	kind Kind
	prof *trace.Profile
	src  trace.Source
	mon  monitor.Monitor // nil for the unmonitored baseline
	evq  *queue.Bounded[isa.Event]
	hier *mem.Hierarchy

	credit float64 // accumulated execution capacity, cycles
	// pending is held by value: a pointer field here would make every
	// monitored event escape to the heap (the hottest allocation site in
	// the whole simulator), even though only full-queue events are parked.
	pending    isa.Event
	hasPending bool
	seq        uint64
	done       bool
	instrs     uint64
	monitored  uint64

	backpressure uint64 // cycles fully stalled on a full event queue
	activeCycles uint64 // cycles with any forward progress
}

// NewAppCore builds an application core. mon may be nil (unmonitored
// baseline); evq may be nil only when mon is nil.
func NewAppCore(kind Kind, prof *trace.Profile, src trace.Source, mon monitor.Monitor, evq *queue.Bounded[isa.Event]) *AppCore {
	return &AppCore{
		kind: kind, prof: prof, src: src, mon: mon, evq: evq,
		hier: mem.NewHierarchy(),
	}
}

// Done reports whether the instruction stream is exhausted and all events
// have been enqueued.
func (c *AppCore) Done() bool { return c.done && !c.hasPending }

// Instrs returns retired instructions.
func (c *AppCore) Instrs() uint64 { return c.instrs }

// MonitoredEvents returns the number of monitored events produced.
func (c *AppCore) MonitoredEvents() uint64 { return c.monitored }

// BackpressureCycles returns cycles lost to a full event queue.
func (c *AppCore) BackpressureCycles() uint64 { return c.backpressure }

// Stalled reports whether the core is currently blocked on the event queue.
func (c *AppCore) Stalled() bool { return c.hasPending && c.evq != nil && c.evq.Full() }

// PendingEvent reports whether a retired monitored event is still waiting to
// enter the event queue. The invariant checker uses it to reconcile event
// conservation: a pending event is produced but not yet pushed.
func (c *AppCore) PendingEvent() bool { return c.hasPending }

// Hierarchy exposes the core's caches for reporting.
func (c *AppCore) Hierarchy() *mem.Hierarchy { return c.hier }

// MetricsCollector returns a collector emitting the core's counters under
// the given prefix ("app" for a single-core system, "app.3" for core 3 of a
// CMP; see docs/METRICS.md for the per-core grammar).
func (c *AppCore) MetricsCollector(prefix string) obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		s.Counter(prefix+".instrs", c.instrs)
		s.Counter(prefix+".monitored_events", c.monitored)
		s.Counter(prefix+".stall.backpressure_cycles", c.backpressure)
		s.Counter(prefix+".cycles.active", c.activeCycles)
		c.hier.MetricsCollector(prefix + ".mem").CollectMetrics(s)
	})
}

// TickShare advances the core by one cycle with the given share of the
// core's resources (1.0 when it owns the core, 0.5 under SMT sharing).
func (c *AppCore) TickShare(share float64) {
	if c.Done() {
		return
	}
	// A blocked enqueue must drain before anything else retires.
	if c.hasPending {
		if !c.evq.Push(c.pending) {
			c.backpressure++
			return
		}
		c.hasPending = false
	}
	c.activeCycles++
	c.credit += share * c.kind.Width()
	// Cap banked capacity at one cycle's worth: idle slots don't bank up
	// beyond the pipeline's buffering.
	if max := 2 * c.kind.Width(); c.credit > max {
		c.credit = max
	}
	for c.credit > 0 && !c.done {
		in, ok := c.src.Next()
		if !ok {
			c.done = true
			break
		}
		c.credit -= c.instrCost(in)
		c.instrs++
		if c.mon != nil && c.mon.Monitored(in) {
			ev := c.mon.EventOf(in, c.seq)
			c.seq++
			c.monitored++
			if !c.evq.Push(ev) {
				c.pending = ev
				c.hasPending = true
				return
			}
		}
	}
}

// QuietTicks implements sim.AppThread. The core is quiescent in three
// states, all of which its TickShare handles before any instruction
// retires:
//
//   - drained: the stream is exhausted and the pending event (if any) was
//     enqueued — ticks are no-ops forever;
//   - backpressured: a retired event is parked on a full event queue —
//     each tick is one failed push plus one backpressure cycle, until the
//     consumer pops (an external act, so: quiet forever);
//   - credit recovery: a long-latency instruction (DRAM miss, allocator
//     call) drove the credit pool negative — each tick only banks
//     share x width capacity until the pool turns positive, which is the
//     wake tick that resumes retirement.
func (c *AppCore) QuietTicks(share float64) uint64 {
	if c.Done() {
		return sim.QuietForever
	}
	if c.hasPending {
		if c.evq.Full() {
			return sim.QuietForever
		}
		return 0 // the parked event drains next tick
	}
	inc := share * c.kind.Width()
	if inc <= 0 {
		// A zero share cannot reach this state through the SMT split
		// (stalled and drained cores are handled above), but claim only
		// what is provable: with no banked deficit nothing is quiet.
		if c.credit <= 0 {
			return sim.QuietForever
		}
		return 0
	}
	// Count the ticks that leave the pool non-positive, replaying the
	// float accumulation exactly as TickShare will.
	n := uint64(0)
	for cr := c.credit + inc; cr <= 0; cr += inc {
		n++
	}
	return n
}

// SkipTicks implements sim.AppThread, bulk-applying n quiescent ticks.
// The credit pool is replayed addition-by-addition: repeated float adds are
// not equivalent to one fused add, and slowdown measurements hang off every
// retirement cycle downstream of this pool.
func (c *AppCore) SkipTicks(n uint64, share float64) {
	if n == 0 || c.Done() {
		return
	}
	if c.hasPending {
		c.evq.StallN(n)
		c.backpressure += n
		return
	}
	inc := share * c.kind.Width()
	c.activeCycles += n
	for i := uint64(0); i < n; i++ {
		c.credit += inc
	}
}

// instrCost returns the instruction's cost in issue-width-normalized units
// (the credit pool is in slots, so a plain instruction costs 1 slot and
// stalls cost width×cycles).
func (c *AppCore) instrCost(in isa.Instr) float64 {
	cost := 1.0 // one issue slot
	w := c.kind.Width()

	hz := c.prof.HazardCPI
	if h, ok := c.src.(hotter); ok && h.Hot() && c.prof.PhaseLen > 0 {
		hz = c.prof.HotHazard
	}
	cost += hz * c.kind.HazardScale() * w

	if in.Op.IsMem() {
		lat := c.hier.AccessLatency(in.Addr)
		if l1 := mem.L1Config.HitLatency; lat > l1 {
			cost += float64(lat-l1) * c.kind.MemOverlap() * w
		}
	}
	switch in.Op {
	case isa.OpCall, isa.OpRet:
		cost += 1 * w // pipeline redirect
	case isa.OpMalloc, isa.OpFree, isa.OpTaintSrc:
		cost += 30 * w // library-call overhead in the application itself
	case isa.OpBranch, isa.OpJmpReg:
		cost += 0.10 * w // amortized misprediction cost
	}
	return cost
}
