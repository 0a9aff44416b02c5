package core

import (
	"fade/internal/isa"
	"fade/internal/mem"
	"fade/internal/metadata"
	"fade/internal/obs"
	"fade/internal/queue"
	"fade/internal/stats"
)

// Mode selects between the baseline accelerator, which stalls filtering
// whenever software processes an event (Section 4), and Non-Blocking FADE
// (Section 5).
type Mode int

const (
	// Blocking is baseline FADE: the filtering unit stalls on every event
	// that requires software until its handler completes.
	Blocking Mode = iota
	// NonBlocking is FADE with the Metadata Write stage, MD update logic,
	// and filter store queue: filtering continues past unfiltered events.
	NonBlocking
)

func (m Mode) String() string {
	if m == NonBlocking {
		return "non-blocking"
	}
	return "blocking"
}

// Unfiltered is an event the accelerator hands to the software monitor.
// For instruction events it carries the operand metadata read in the
// Metadata Read stage: the handler must base its decisions on these values,
// because by the time it runs, a non-blocking accelerator may already have
// applied critical-metadata updates for younger events.
type Unfiltered struct {
	Ev        isa.Event
	HandlerPC uint32
	// Short marks a partially filtered event: the hardware check
	// succeeded and only the short handler runs (Section 4.1).
	Short bool
	// MD is the operand metadata snapshot (valid for instruction events).
	MD      Operands
	MDValid bool
}

// Config parameterizes a filtering unit. Zero values select the paper's
// configuration via DefaultConfig.
type Config struct {
	Mode        Mode
	MDCache     mem.CacheConfig
	MTLBEntries int
	// MDMissLatency is the *effective* added stall when an MD cache
	// access misses. The L2 round trip is 10 cycles (Table 1), but the
	// four-stage filtering pipeline overlaps a miss with the in-flight
	// stages and the event queue keeps the front end fed, so only the
	// unoverlapped tail stalls the accelerator.
	MDMissLatency int
	// MTLBMissPenalty is the software M-TLB miss service cost.
	MTLBMissPenalty int
	// UnfilteredBurstGap is the maximum number of filterable events
	// between two unfiltered events for them to belong to one burst
	// (16, Section 3.4).
	UnfilteredBurstGap int
	// BlockingSignalLatency is the completion-notification round trip a
	// *blocking* accelerator pays per software-processed event: the
	// monitor core signals handler completion through a memory-mapped
	// doorbell that the stalled accelerator observes cycles later.
	// Non-blocking FADE never waits, so it never pays this.
	BlockingSignalLatency int
}

// DefaultConfig returns the Section 6 configuration.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:                  mode,
		MDCache:               mem.MDCacheConfig,
		MTLBEntries:           mem.MTLBEntries,
		MDMissLatency:         4,
		MTLBMissPenalty:       mem.MTLBMissPenalty,
		UnfilteredBurstGap:    16,
		BlockingSignalLatency: 14,
	}
}

// Stats aggregates the filtering unit's counters.
type Stats struct {
	InstrEvents     uint64 // instruction events processed
	StackEvents     uint64 // stack-update events processed
	HighLevelEvents uint64 // high-level events forwarded

	FilteredCC     uint64 // filtered by clean check
	FilteredRU     uint64 // filtered by redundant update
	PartialShort   uint64 // partial filtering: hardware check passed
	UnfilteredSent uint64 // events sent to software (incl. partial)

	ChainCycles   uint64 // extra cycles spent on multi-shot chains
	MDCacheStalls uint64 // cycles stalled on MD cache misses
	MTLBStalls    uint64 // cycles stalled on M-TLB software service
	BlockedCycles uint64 // cycles stalled waiting for handler completion
	DrainCycles   uint64 // cycles waiting for unfiltered-queue drain
	SUUCycles     uint64 // cycles the SUU occupied the accelerator
	EnqueueStalls uint64 // cycles stalled on a full unfiltered queue
	FSQStalls     uint64 // cycles stalled on a full FSQ
	IdleCycles    uint64 // cycles with no event available
	BusyCycles    uint64 // cycles doing useful filtering work
	NBRegWrites   uint64 // critical register metadata writes by MD update logic
	NBMemWrites   uint64 // critical memory metadata writes into the FSQ

	// UnfilteredDistance is the distribution of distances (in monitored
	// events) between consecutive software-bound events (Fig. 4b).
	UnfilteredDistance *stats.Histogram
	// BurstSizes is the distribution of unfiltered burst sizes (Fig. 4c).
	BurstSizes *stats.Histogram
}

// Filtered returns the number of instruction events fully handled in
// hardware.
func (s *Stats) Filtered() uint64 { return s.FilteredCC + s.FilteredRU }

// FilterRatio returns the fraction of instruction event handlers elided by
// the accelerator — Table 2's filtering efficiency. Partially filtered
// events count: their (complex) handler was elided even though a short
// handler still runs.
func (s *Stats) FilterRatio() float64 {
	return stats.Ratio(s.Filtered()+s.PartialShort, s.InstrEvents)
}

// FilteringUnit is the FADE accelerator: event table, INV RF, filter logic,
// MD cache + M-TLB, Stack-Update Unit, and — in non-blocking mode — the MD
// update logic and filter store queue. It consumes the event queue and
// produces into the unfiltered event queue.
type FilteringUnit struct {
	cfg   Config
	Table EventTable
	Inv   InvariantFile

	md      *metadata.State
	mdCache *mem.Cache
	mtlb    *mem.TLB
	l2      *mem.Cache // shared L2 backing the MD cache; may be nil
	fsq     FSQ
	suu     *SUU

	evq *queue.Bounded[isa.Event]
	ufq *queue.Bounded[Unfiltered]

	// Execution state. cur points into curBuf while an event occupies the
	// accelerator (nil otherwise): reusing the one buffer keeps the
	// per-event path allocation-free instead of heap-allocating an
	// inflight record for every event popped from the queue.
	stall       int
	cur         *inflight
	curBuf      inflight
	waiting     bool
	waitSeq     uint64
	outstanding int // unfiltered events issued but not yet completed

	// sampled counts the unfiltered queue's occupancy samples, one per Tick.
	sampled uint64

	// Burst tracking.
	sinceUnfiltered int
	burstLen        int

	// prog is the compiled decision table (table.go): the event table and
	// INV RF flattened into per-entry rows, rebuilt lazily whenever either
	// store's generation counter moves.
	prog program

	st Stats
}

// inflight is the event currently occupying the accelerator.
type inflight struct {
	ev      isa.Event
	entryID uint8
	visited int // chain hops taken, to bound malformed chains
	// Metadata read state.
	readCharged bool
	ops         Operands
	destMDAddr  uint32
	destIsMem   bool
}

// New creates a filtering unit over the given metadata state and queues.
// l2 may be nil, in which case MD cache misses cost cfg.MDMissLatency flat.
func New(cfg Config, md *metadata.State, evq *queue.Bounded[isa.Event], ufq *queue.Bounded[Unfiltered], l2 *mem.Cache) *FilteringUnit {
	if cfg.MDCache.SizeBytes == 0 {
		cfg = DefaultConfig(cfg.Mode)
	}
	fu := &FilteringUnit{
		cfg:     cfg,
		md:      md,
		mdCache: mem.NewCache(cfg.MDCache),
		mtlb:    mem.NewTLB(cfg.MTLBEntries),
		l2:      l2,
		evq:     evq,
		ufq:     ufq,
	}
	fu.suu = NewSUU(md.Mem, fu.mdCache)
	fu.st.UnfilteredDistance = stats.NewHistogram()
	fu.st.BurstSizes = stats.NewHistogram()
	return fu
}

// Stats returns the accumulated counters.
func (fu *FilteringUnit) Stats() *Stats { return &fu.st }

// MDCache exposes the metadata cache (for experiment reporting).
func (fu *FilteringUnit) MDCache() *mem.Cache { return fu.mdCache }

// MTLB exposes the metadata TLB.
func (fu *FilteringUnit) MTLB() *mem.TLB { return fu.mtlb }

// Outstanding returns the number of unfiltered events not yet completed.
func (fu *FilteringUnit) Outstanding() int { return fu.outstanding }

// UFQ exposes the unfiltered event queue for system-level wiring: the fault
// injector throttles its effective capacity and the invariant checker reads
// its occupancy.
func (fu *FilteringUnit) UFQ() *queue.Bounded[Unfiltered] { return fu.ufq }

// Complete signals that the software handler for the unfiltered event with
// the given sequence number has finished: its FSQ entries are discarded and
// a blocked accelerator resumes (Section 5.2).
func (fu *FilteringUnit) Complete(seq uint64) {
	fu.outstanding--
	fu.fsq.Complete(seq)
	if fu.waiting && fu.waitSeq == seq {
		fu.waiting = false
		fu.stall += fu.cfg.BlockingSignalLatency
	}
}

// RecordOccupancy records the unfiltered queue's occupancy as dwell time
// against cycle, the clock's cycle. Tick samples it first thing: after the
// cycle's pops by the monitor, which ticks first, and before the unit's
// own pushes.
func (fu *FilteringUnit) RecordOccupancy(cycle func() uint64) {
	fu.ufq.RecordOccupancy(func() uint64 { return max(cycle(), fu.sampled) })
}

// Tick advances the accelerator by one cycle.
func (fu *FilteringUnit) Tick(cycle uint64) {
	fu.sampled = cycle + 1
	switch {
	case fu.suu.Busy():
		// The SUU occupies the accelerator; filtering is stopped while
		// stack-frame metadata is set (Section 5.2).
		fu.suu.Tick()
		fu.st.SUUCycles++
	case fu.stall > 0:
		fu.stall--
	case fu.waiting:
		fu.st.BlockedCycles++
	default:
		fu.step()
	}
}

// quietForever mirrors sim.QuietForever structurally (the core package
// implements sim.Sleeper without importing the kernel).
const quietForever = ^uint64(0)

// QuietTicks implements sim.Sleeper. The accelerator is quiescent
// while it counts down a metadata-read stall, while it is blocked waiting
// for a software handler to complete (the wake is the monitor core's
// Complete call — an external act), and while it is idle on an empty event
// queue. SUU activity and any cycle that pops, filters, or forwards an
// event executes exactly.
func (fu *FilteringUnit) QuietTicks() uint64 {
	switch {
	case fu.suu.Busy():
		return 0
	case fu.stall > 0:
		return uint64(fu.stall)
	case fu.waiting:
		return quietForever
	case fu.cur == nil && fu.evq.Empty():
		return quietForever
	default:
		return 0
	}
}

// SkipTicks implements sim.Sleeper, replaying the stall/blocked/idle
// accounting of n quiet ticks.
func (fu *FilteringUnit) SkipTicks(n uint64) {
	switch {
	case fu.stall > 0:
		fu.stall -= int(n)
	case fu.waiting:
		fu.st.BlockedCycles += n
	default:
		fu.st.IdleCycles += n
	}
}

// step performs one cycle of event processing.
func (fu *FilteringUnit) step() {
	if fu.cur == nil {
		ev, ok := fu.evq.Pop()
		if !ok {
			fu.st.IdleCycles++
			return
		}
		fu.curBuf = inflight{ev: ev, entryID: ev.ID}
		fu.cur = &fu.curBuf
	}
	fu.st.BusyCycles++

	switch fu.cur.ev.Kind {
	case isa.EvStackCall, isa.EvStackRet:
		fu.stepStack()
	case isa.EvHighLevel:
		fu.stepHighLevel()
	default:
		fu.stepInstr()
	}
}

// stepStack handles a stack-update event: wait for the unfiltered event
// queue to drain (pending events may reference frame metadata; Section
// 5.2), then hand the frame range to the SUU. Events already dispatched to
// the consumer have performed their metadata reads, so only queued events
// gate the stack update.
func (fu *FilteringUnit) stepStack() {
	if !fu.ufq.Empty() {
		fu.st.DrainCycles++
		return
	}
	ev := fu.cur.ev
	callV, retV, ok := fu.Inv.StackValues()
	if !ok {
		// The monitor does not track stack state; nothing to do.
		fu.finishEvent(false)
		fu.st.StackEvents++
		return
	}
	v := callV
	if ev.Kind == isa.EvStackRet {
		v = retV
	}
	fu.suu.Start(ev.Addr, ev.Size, v)
	fu.st.StackEvents++
	fu.finishEvent(false)
}

// stepHighLevel forwards a high-level event (malloc/free/taint source) to
// software. Its handler performs bulk metadata updates that cannot ride the
// FSQ, so the accelerator waits for queue drain before issuing it and for
// handler completion before resuming — in both modes.
func (fu *FilteringUnit) stepHighLevel() {
	if fu.outstanding > 0 {
		fu.st.DrainCycles++
		return
	}
	if !fu.ufq.Push(Unfiltered{Ev: fu.cur.ev}) {
		fu.st.EnqueueStalls++
		return
	}
	fu.outstanding++
	fu.st.HighLevelEvents++
	fu.st.UnfilteredSent++
	fu.noteUnfiltered()
	fu.waiting = true
	fu.waitSeq = fu.cur.ev.Seq
	fu.cur = nil
}

// row returns the compiled decision row for entry id, recompiling the
// program first if the event table or INV RF changed since the last build.
func (fu *FilteringUnit) row(id uint8) *row {
	if fu.prog.stale(&fu.Table, &fu.Inv) {
		fu.prog.compile(&fu.Table, &fu.Inv)
	}
	return &fu.prog.rows[id&(EventTableEntries-1)]
}

// stepInstr runs the filtering pipeline for an instruction event: Event
// Table Read, Control, Metadata Read (with MD cache and M-TLB timing),
// Filter, and — for unfilterable events in non-blocking mode — Metadata
// Write. The Event Table Read + Control + Filter stages walk the compiled
// decision table (table.go) instead of re-decoding the entry and
// re-dispatching through filterCheck; the modeled timing is identical.
func (fu *FilteringUnit) stepInstr() {
	cur := fu.cur
	r := fu.row(cur.entryID)
	if r.kind == rowUnprogrammed {
		// Unprogrammed event: everything goes to software, with no
		// metadata-read cost model (the monitor sees the raw event).
		fu.sendToSoftware(Unfiltered{Ev: cur.ev}, Entry{}, false)
		return
	}

	if !cur.readCharged {
		cur.readCharged = true
		if r.hasMem {
			if stallCycles := fu.chargeMetadataRead(cur); stallCycles > 0 {
				fu.stall = stallCycles
				return
			}
		}
	}
	fu.readOperands(cur, r.entry)

	if r.filter(cur.ops) {
		if r.partial {
			// Hardware check passed: dispatch the short handler found
			// via the Next pointer. Critical metadata is unchanged, so
			// filtering may continue even in blocking mode once the
			// event is enqueued.
			fu.enqueuePartial(Unfiltered{
				Ev: cur.ev, HandlerPC: r.shortPC, Short: true,
				MD: cur.ops, MDValid: true,
			})
			return
		}
		if r.kind == rowClean {
			fu.st.FilteredCC++
		} else {
			fu.st.FilteredRU++
		}
		fu.st.InstrEvents++
		fu.finishEvent(true)
		return
	}

	// Check failed. Multi-shot chains try the next entry next cycle.
	if r.ms && cur.visited < EventTableEntries {
		cur.visited++
		cur.entryID = r.next
		fu.st.ChainCycles++
		return
	}

	fu.sendToSoftware(Unfiltered{
		Ev: cur.ev, HandlerPC: r.entry.HandlerPC, MD: cur.ops, MDValid: true,
	}, r.entry, true)
}

// chargeMetadataRead models the Metadata Read stage's MD cache and M-TLB
// timing for the event's memory operands (the caller gates on the row's
// precompiled has-memory-operand bit). It returns extra stall cycles.
func (fu *FilteringUnit) chargeMetadataRead(cur *inflight) int {
	// All memory operands of an event share one address (the event
	// carries a single application address, Fig. 6a).
	extra := 0
	if !fu.mtlb.Lookup(metadata.MTLBSlab(cur.ev.Addr)) {
		extra += fu.cfg.MTLBMissPenalty
		fu.st.MTLBStalls += uint64(fu.cfg.MTLBMissPenalty)
	}
	if !fu.mdCache.Access(metadata.MDAddr(cur.ev.Addr)) {
		miss := fu.cfg.MDMissLatency
		if fu.l2 != nil && !fu.l2.Access(metadata.MDAddr(cur.ev.Addr)) {
			// Metadata absent even from the shared L2: the DRAM tail
			// cannot be hidden.
			miss += mem.DRAMLatency / 2
		}
		extra += miss
		fu.st.MDCacheStalls += uint64(miss)
	}
	return extra
}

// readOperands performs the functional Metadata Read: register operands
// from the MD RF, memory operands from the FSQ (newest pending update) or
// the metadata memory.
func (fu *FilteringUnit) readOperands(cur *inflight, e Entry) {
	ev := cur.ev
	read := func(r OperandRule, reg isa.Reg) byte {
		if !r.Valid {
			return 0
		}
		if r.Mem {
			if v, hit := fu.fsq.Lookup(metadata.MDAddr(ev.Addr)); hit {
				return v
			}
			return fu.md.Mem.Load(ev.Addr)
		}
		return fu.md.Regs.Load(reg)
	}
	cur.ops = Operands{
		S1: read(e.S1, ev.Src1),
		S2: read(e.S2, ev.Src2),
		D:  read(e.D, ev.Dest),
	}
	cur.destIsMem = e.D.Valid && e.D.Mem
	cur.destMDAddr = metadata.MDAddr(ev.Addr)
}

// enqueuePartial pushes a partially filtered event; on success the
// accelerator moves on immediately (no critical-metadata change).
func (fu *FilteringUnit) enqueuePartial(u Unfiltered) {
	if !fu.ufq.Push(u) {
		fu.st.EnqueueStalls++
		return // head-of-line stall; retry next cycle
	}
	fu.outstanding++
	fu.st.PartialShort++
	fu.st.InstrEvents++
	fu.st.UnfilteredSent++
	// Partially filtered events count as filterable for the burst and
	// distance statistics: the hardware check succeeded and the expensive
	// handler was elided (Fig. 4 measures truly unfilterable activity).
	fu.sinceUnfiltered++
	if fu.cfg.Mode == Blocking {
		fu.waiting = true
		fu.waitSeq = u.Ev.Seq
	}
	fu.cur = nil
}

// sendToSoftware pushes an unfiltered instruction event, applying the MD
// update logic in non-blocking mode (Metadata Write stage).
func (fu *FilteringUnit) sendToSoftware(u Unfiltered, e Entry, counted bool) {
	if fu.ufq.Full() {
		fu.st.EnqueueStalls++
		return // retry next cycle
	}
	// Compute the critical-metadata update before enqueueing so FSQ
	// capacity can veto the whole step atomically.
	if fu.cfg.Mode == NonBlocking {
		if v, ok := mdUpdate(e, fu.cur.ops, &fu.Inv); ok {
			if fu.cur.destIsMem {
				if !fu.fsq.Insert(fu.cur.destMDAddr, v, u.Ev.Seq) {
					fu.st.FSQStalls++
					return // FSQ full; retry next cycle
				}
				fu.st.NBMemWrites++
			} else if u.Ev.Dest != isa.RegNone {
				fu.md.Regs.Store(u.Ev.Dest, v)
				fu.st.NBRegWrites++
			}
		}
	}
	if !fu.ufq.Push(u) {
		panic("core: unfiltered queue rejected push after Full check")
	}
	fu.outstanding++
	if counted {
		fu.st.InstrEvents++
	}
	fu.st.UnfilteredSent++
	fu.noteUnfiltered()
	if fu.cfg.Mode == Blocking {
		fu.waiting = true
		fu.waitSeq = u.Ev.Seq
	}
	fu.cur = nil
}

// finishEvent retires the current event without software involvement.
func (fu *FilteringUnit) finishEvent(filterable bool) {
	if filterable {
		fu.sinceUnfiltered++
	}
	fu.cur = nil
}

// noteUnfiltered updates the inter-unfiltered distance and burst stats.
func (fu *FilteringUnit) noteUnfiltered() {
	fu.st.UnfilteredDistance.Add(fu.sinceUnfiltered)
	if fu.burstLen > 0 && fu.sinceUnfiltered > fu.cfg.UnfilteredBurstGap {
		fu.st.BurstSizes.Add(fu.burstLen)
		fu.burstLen = 0
	}
	fu.burstLen++
	fu.sinceUnfiltered = 0
}

// FlushBurst closes the in-progress unfiltered burst (called at end of
// simulation so the last burst is recorded).
func (fu *FilteringUnit) FlushBurst() {
	if fu.burstLen > 0 {
		fu.st.BurstSizes.Add(fu.burstLen)
		fu.burstLen = 0
	}
}

// Busy reports whether the accelerator holds in-flight work (used by
// drain-to-completion logic at simulation end).
func (fu *FilteringUnit) Busy() bool {
	return fu.cur != nil || fu.suu.Busy() || fu.stall > 0 || fu.waiting
}

// MetricsCollector returns a collector emitting the accelerator's counters
// under the given prefixes for the unit itself, its filter store queue, and
// its unfiltered event queue ("fu"/"fsq"/"queue.ufq" for a single-core
// system; "fu.3"/"fsq.3"/"queue.ufq.3" for core 3 of a CMP). The per-event
// hot path keeps incrementing plain Stats fields; this pull happens only
// at snapshot points.
func (fu *FilteringUnit) MetricsCollector(prefix, fsqPrefix, ufqPrefix string) obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		st := &fu.st
		s.Counter(prefix+".events.instr", st.InstrEvents)
		s.Counter(prefix+".events.stack", st.StackEvents)
		s.Counter(prefix+".events.high_level", st.HighLevelEvents)
		s.Counter(prefix+".filtered.clean_check", st.FilteredCC)
		s.Counter(prefix+".filtered.redundant_update", st.FilteredRU)
		s.Counter(prefix+".filtered.partial_short", st.PartialShort)
		s.Counter(prefix+".unfiltered.sent", st.UnfilteredSent)
		s.Gauge(prefix+".filter_ratio", st.FilterRatio())
		s.Counter(prefix+".cycles.busy", st.BusyCycles)
		s.Counter(prefix+".cycles.idle", st.IdleCycles)
		s.Counter(prefix+".cycles.chain", st.ChainCycles)
		s.Counter(prefix+".cycles.suu", st.SUUCycles)
		s.Counter(prefix+".stall.mdcache", st.MDCacheStalls)
		s.Counter(prefix+".stall.mtlb", st.MTLBStalls)
		s.Counter(prefix+".stall.blocked", st.BlockedCycles)
		s.Counter(prefix+".stall.drain", st.DrainCycles)
		s.Counter(prefix+".stall.enqueue", st.EnqueueStalls)
		s.Counter(prefix+".stall.fsq", st.FSQStalls)
		s.Counter(prefix+".nb.reg_writes", st.NBRegWrites)
		s.Counter(prefix+".nb.mem_writes", st.NBMemWrites)
		s.Histogram(prefix+".unfiltered_distance", st.UnfilteredDistance)
		s.Histogram(prefix+".burst_size", st.BurstSizes)
		s.Gauge(fsqPrefix+".occupancy", float64(fu.fsq.Len()))
		fu.mdCache.MetricsCollector(prefix + ".mdcache").CollectMetrics(s)
		fu.mtlb.MetricsCollector(prefix + ".mtlb").CollectMetrics(s)
		// The unfiltered event queue is owned by the accelerator, which
		// produces into it; its consumer-side counters ride along here.
		fu.ufq.MetricsCollector(ufqPrefix).CollectMetrics(s)
	})
}

// Mode returns the configured filtering mode.
func (fu *FilteringUnit) Mode() Mode { return fu.cfg.Mode }
