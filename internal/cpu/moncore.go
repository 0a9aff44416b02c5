package cpu

import (
	"fade/internal/core"
	"fade/internal/isa"
	"fade/internal/metadata"
	"fade/internal/monitor"
	"fade/internal/obs"
	"fade/internal/queue"
	"fade/internal/sim"
)

// MonitorCore models the hardware thread (or core) running the monitoring
// software. In a FADE-enabled system it consumes the unfiltered event queue
// and signals handler completion back to the accelerator; in an
// unaccelerated system it consumes the (single) event queue directly and
// executes a handler for every monitored event.
type MonitorCore struct {
	kind Kind
	mon  monitor.Monitor
	md   *metadata.State

	// Exactly one of the two queues is set.
	ufq *queue.Bounded[core.Unfiltered]
	evq *queue.Bounded[isa.Event]

	fu *core.FilteringUnit // non-nil in FADE systems

	// critRegs is true when software owns critical register metadata
	// (unaccelerated and blocking-FADE systems).
	critRegs bool

	busyLeft   float64 // remaining handler instructions
	curSeq     uint64
	inFlight   bool
	busyCycles uint64
	idleCycles uint64

	handled    uint64
	reported   uint64 // cumulative detections (reports is drained by Reports)
	reports    []monitor.Report
	classInstr map[monitor.Class]float64
}

// NewMonitorCoreFADE builds the unfiltered-event consumer of a FADE system.
func NewMonitorCoreFADE(kind Kind, mon monitor.Monitor, md *metadata.State, ufq *queue.Bounded[core.Unfiltered], fu *core.FilteringUnit, critRegs bool) *MonitorCore {
	return &MonitorCore{
		kind: kind, mon: mon, md: md, ufq: ufq, fu: fu, critRegs: critRegs,
		classInstr: make(map[monitor.Class]float64),
	}
}

// NewMonitorCoreDirect builds the consumer of an unaccelerated system: all
// monitored events arrive on a single queue and are handled in software.
func NewMonitorCoreDirect(kind Kind, mon monitor.Monitor, md *metadata.State, evq *queue.Bounded[isa.Event]) *MonitorCore {
	return &MonitorCore{
		kind: kind, mon: mon, md: md, evq: evq, critRegs: true,
		classInstr: make(map[monitor.Class]float64),
	}
}

// Busy reports whether a handler is executing or events are waiting.
func (c *MonitorCore) Busy() bool {
	if c.inFlight {
		return true
	}
	if c.ufq != nil {
		return !c.ufq.Empty()
	}
	return !c.evq.Empty()
}

// Handled returns the number of handlers executed.
func (c *MonitorCore) Handled() uint64 { return c.handled }

// BusyCycles and IdleCycles report utilization.
func (c *MonitorCore) BusyCycles() uint64 { return c.busyCycles }
func (c *MonitorCore) IdleCycles() uint64 { return c.idleCycles }

// InFlight reports whether a handler invocation is currently executing. The
// invariant checker uses it to reconcile outstanding-event accounting: an
// in-flight handler holds one event popped from the UFQ but not yet
// completed back to the filtering unit.
func (c *MonitorCore) InFlight() bool { return c.inFlight }

// Reports returns and clears the accumulated detections.
func (c *MonitorCore) Reports() []monitor.Report {
	r := c.reports
	c.reports = nil
	return r
}

// ClassInstr returns the handler instructions executed per class, the raw
// material of the Fig. 4(a) execution-time breakdown.
func (c *MonitorCore) ClassInstr() map[monitor.Class]float64 { return c.classInstr }

// MetricsCollector returns a collector emitting the thread's counters under
// the given prefix ("moncore" for a single-core system, "moncore.3" for the
// monitor thread serving core 3 of a CMP).
func (c *MonitorCore) MetricsCollector(prefix string) obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		s.Counter(prefix+".handlers_run", c.handled)
		s.Counter(prefix+".busy_cycles", c.busyCycles)
		s.Counter(prefix+".stall_cycles", c.idleCycles)
		s.Counter(prefix+".reports", c.reported)
		for _, class := range monitor.Classes() {
			s.Gauge(prefix+".handler_instrs."+class.MetricName(), c.classInstr[class])
		}
	})
}

// TickShare advances the monitor thread by one cycle at the given resource
// share. Handler progress is HandlerIPC x share instructions per cycle.
func (c *MonitorCore) TickShare(share float64) {
	if c.inFlight {
		c.busyCycles++
		c.busyLeft -= c.kind.HandlerIPC() * share
		if c.busyLeft <= 0 {
			c.inFlight = false
			if c.fu != nil {
				c.fu.Complete(c.curSeq)
			}
		}
		return
	}
	// Dispatch the next event, if any.
	if c.ufq != nil {
		u, ok := c.ufq.Pop()
		if !ok {
			c.idleCycles++
			return
		}
		hc := monitor.HandleCtx{
			CritRegs: c.critRegs,
			MDValid:  u.MDValid,
			S1:       u.MD.S1, S2: u.MD.S2, D: u.MD.D,
		}
		c.start(u.Ev, u.Short, share, hc)
		return
	}
	ev, ok := c.evq.Pop()
	if !ok {
		c.idleCycles++
		return
	}
	c.start(ev, false, share, monitor.HandleCtx{CritRegs: true})
}

// QuietTicks implements sim.MonThread. An idle thread (no in-flight
// handler, empty queue) is quiet until a producer enqueues work; a thread
// crunching a long handler is quiet until the tick on which the remaining
// work reaches zero — that tick completes the handler (and, in FADE
// systems, signals the accelerator), so it must execute exactly.
func (c *MonitorCore) QuietTicks(share float64) uint64 {
	if c.inFlight {
		dec := c.kind.HandlerIPC() * share
		if dec <= 0 {
			return sim.QuietForever // no progress at zero share
		}
		n := uint64(0)
		for left := c.busyLeft - dec; left > 0; left -= dec {
			n++
		}
		return n
	}
	if c.ufq != nil {
		if c.ufq.Empty() {
			return sim.QuietForever
		}
	} else if c.evq.Empty() {
		return sim.QuietForever
	}
	return 0 // an event is waiting: next tick dispatches it
}

// SkipTicks implements sim.MonThread. In-flight handler progress is
// replayed subtraction-by-subtraction for bit-exact remaining work; idle
// ticks are pure stall accounting.
func (c *MonitorCore) SkipTicks(n uint64, share float64) {
	if n == 0 {
		return
	}
	if c.inFlight {
		c.busyCycles += n
		dec := c.kind.HandlerIPC() * share
		for i := uint64(0); i < n; i++ {
			c.busyLeft -= dec
		}
		return
	}
	c.idleCycles += n
}

// start runs the handler functionally and arms the cost timer. The
// functional effects apply at dispatch; completion (and the FSQ discard) is
// signaled when the modeled handler duration elapses — any interim reader
// sees the same critical values through the FSQ, so the early application
// is unobservable (see internal/system differential tests).
func (c *MonitorCore) start(ev isa.Event, short bool, share float64, hc monitor.HandleCtx) {
	res := c.mon.Handle(ev, c.md, hc)
	cost := res.Cost
	if short && res.ShortCost > 0 {
		// Partially filtered event: the hardware already performed the
		// check; only the short handler body runs (Section 4.1).
		cost = res.ShortCost
	}
	c.classInstr[res.Class] += float64(res.Cost)
	c.reports = append(c.reports, res.Reports...)
	c.reported += uint64(len(res.Reports))
	c.handled++
	c.curSeq = ev.Seq
	c.inFlight = true
	c.busyCycles++
	c.busyLeft = float64(cost) - c.kind.HandlerIPC()*share
	if c.busyLeft <= 0 {
		c.inFlight = false
		if c.fu != nil {
			c.fu.Complete(c.curSeq)
		}
	}
}

// Finalize runs the monitor's end-of-run analysis.
func (c *MonitorCore) Finalize() []monitor.Report {
	final := c.mon.Finalize(c.md)
	c.reports = append(c.reports, final...)
	c.reported += uint64(len(final))
	return c.Reports()
}
