package system

import (
	"fade/internal/cpu"
	"fade/internal/fault"
	"fade/internal/metadata"
	"fade/internal/trace"
)

// Fault wiring. Each core group gets its own fault.Engine (seeded per core,
// so a CMP's injectors are decorrelated exactly like its workload copies)
// registered on the clock ahead of every component that consults it,
// followed by a faultProbe that applies the cycle's decisions: queue
// throttles and metadata corruption. The monitor-stall decision is applied
// at the scheduling boundary instead, by wrapping the monitor thread in a
// stallGate — the engine itself never touches simulated components.

// stallGate freezes a monitor thread while its group's engine holds a
// monitor-stall burst: TickShare is swallowed, so the thread makes no
// progress, while Busy still reports pending work — the frozen thread
// occupies its hardware-thread slot (and, on a shared monitor core, its
// round-robin turn), so backpressure builds behind it rather than the
// stall being scheduled around.
type stallGate struct {
	mc  *cpu.MonitorCore
	eng *fault.Engine
}

func (s stallGate) TickShare(share float64) {
	if s.eng.MonStalled() {
		return
	}
	s.mc.TickShare(share)
}

func (s stallGate) Busy() bool { return s.mc.Busy() }

// QuietTicks and SkipTicks implement sim.MonThread conservatively: the gate
// is never quiet, so nothing is ever skipped through it. Fault runs execute
// every cycle anyway, because the engine is not a sim.Sleeper.
func (s stallGate) QuietTicks(float64) uint64 { return 0 }
func (s stallGate) SkipTicks(uint64, float64) {}

// faultProbe applies one group's per-cycle fault decisions. It ticks
// immediately after its engine, before any consumer or producer, so a
// cycle's throttles are in place before anyone tests queue fullness.
type faultProbe struct {
	eng *fault.Engine
	g   *coreGroup
}

// Tick implements sim.Component.
func (p *faultProbe) Tick(uint64) {
	p.g.evq.Throttle(p.eng.MEQCap())
	if p.g.fu != nil {
		p.g.fu.UFQ().Throttle(p.eng.UFQCap())
	}
	if off, mask, ok := p.eng.TakeCorruption(); ok {
		corruptMetadata(p.g.md, off, mask)
	}
}

// corruptMetadata flips bits in the shadow of the globals region — the one
// statically-known address range every monitor shadows — mapping the
// engine's raw offset draw into it. The corruption is applied through the
// ordinary metadata store path, so monitors observe perturbed state exactly
// as they would observe a real soft error in the metadata SRAM.
func corruptMetadata(md *metadata.State, off uint32, mask byte) {
	addr := trace.GlobalBase + off%trace.GlobalSize
	md.Mem.Store(addr, md.Mem.Load(addr)^mask)
}
