package monitor

import (
	"fmt"
	"sort"

	"fade/internal/core"
	"fade/internal/isa"
	"fade/internal/metadata"
	"fade/internal/trace"
)

// MemLeak identifies memory leaks through reference counting (Maebe et al.;
// Section 6). Critical metadata consist of the pointer/non-pointer status
// of each register and memory word; non-critical metadata bind each
// pointer-holding location to the context of the corresponding malloc — a
// unique id, PC, and a reference counter (Section 5.1). FADE performs clean
// checks to filter events whose operands are all non-pointers; any event
// touching a pointer is unfilterable, because reference counts must be
// maintained in software.
type MemLeak struct {
	contexts map[uint32]*allocContext // keyed by allocation base
	regBind  [isa.NumRegs]uint32      // register -> allocation base (0 = none)
	memBind  map[uint32]uint32        // metadata addr -> allocation base
	nextID   uint32
	reports  []Report
}

// allocContext is the malloc context of Section 5.1.
type allocContext struct {
	id       uint32
	pc       uint32
	base     uint32
	size     uint32
	refs     int
	freed    bool
	reported bool
}

// MemLeak metadata states.
const (
	mlNonPointer byte = 0
	mlPointer    byte = 1
)

// MemLeak event-table ids.
const (
	mlEvLoad  = 1
	mlEvStore = 2
	mlEvALU   = 3 // two register sources
	mlEvALU1  = 4 // single register source (reg-imm forms)
)

// Software handler costs in dynamic instructions. The slow path updates
// two reference counts and the location->context binding.
const (
	mlCostFast    = 18
	mlCostSlow    = 24
	mlCostMalloc  = 44
	mlCostFree    = 40
	mlCostStack   = 12
	mlCostPerWord = 4 // per 16 words of bulk shadow work
)

// NewMemLeak returns a fresh MemLeak monitor.
func NewMemLeak() *MemLeak {
	return &MemLeak{
		contexts: make(map[uint32]*allocContext),
		memBind:  make(map[uint32]uint32),
		nextID:   1,
	}
}

// Name implements Monitor.
func (m *MemLeak) Name() string { return "MemLeak" }

// Kind implements Monitor.
func (m *MemLeak) Kind() Kind { return PropagationTracking }

// Monitored selects instructions that may propagate a pointer value —
// integer computation and loads/stores — and eliminates floating-point
// instructions (Section 3.1).
func (m *MemLeak) Monitored(in isa.Instr) bool {
	switch in.Op {
	case isa.OpLoad, isa.OpStore, isa.OpALU:
		return true
	case isa.OpMalloc, isa.OpFree, isa.OpCall, isa.OpRet:
		return true
	}
	return false
}

// TracksStack implements Monitor: dead frames' pointer status is cleared.
func (m *MemLeak) TracksStack() bool { return true }

// EventOf implements Monitor.
func (m *MemLeak) EventOf(in isa.Instr, seq uint64) isa.Event {
	ev := isa.Event{
		PC: in.PC, Addr: in.Addr, Src1: in.Src1, Src2: in.Src2, Dest: in.Dest,
		Op: in.Op, Size: in.Size, Thread: in.Thread, Seq: seq,
	}
	switch in.Op {
	case isa.OpLoad:
		ev.ID, ev.Kind = mlEvLoad, isa.EvInstr
	case isa.OpStore:
		ev.ID, ev.Kind = mlEvStore, isa.EvInstr
	case isa.OpALU:
		if in.Src2 == isa.RegNone {
			ev.ID, ev.Kind = mlEvALU1, isa.EvInstr
		} else {
			ev.ID, ev.Kind = mlEvALU, isa.EvInstr
		}
	case isa.OpCall:
		ev.Kind = isa.EvStackCall
	case isa.OpRet:
		ev.Kind = isa.EvStackRet
	default:
		ev.Kind = isa.EvHighLevel
	}
	return ev
}

// Init implements Monitor: nothing holds pointers at program start (the
// zero state).
func (m *MemLeak) Init(st *metadata.State) {}

// Program implements Monitor. All events are single-shot clean checks
// against the non-pointer invariant, exactly the Fig. 6(b) example. The MD
// update logic propagates pointerness for unfilterable events: loads and
// stores copy the source status, computation ORs the sources (pointer
// arithmetic keeps pointerness).
func (m *MemLeak) Program(p core.Programmer) error {
	if err := p.SetInvariant(0, mlNonPointer); err != nil {
		return err
	}
	if err := p.SetInvariant(1, mlPointer); err != nil {
		return err
	}
	if err := p.SetStackInvariants(0, 0); err != nil {
		return err
	}

	memOp := core.OperandRule{Valid: true, Mem: true, MDBytes: 1, Mask: 0xFF, INVid: 0}
	regOp := core.OperandRule{Valid: true, Mem: false, MDBytes: 1, Mask: 0xFF, INVid: 0}

	entries := map[int]core.Entry{
		mlEvLoad:  {S1: memOp, D: regOp, CC: true, NB: core.NBPropS1, HandlerPC: 0x4000},
		mlEvStore: {S1: regOp, D: memOp, CC: true, NB: core.NBPropS1, HandlerPC: 0x4010},
		mlEvALU:   {S1: regOp, S2: regOp, D: regOp, CC: true, NB: core.NBOr, HandlerPC: 0x4020},
		mlEvALU1:  {S1: regOp, D: regOp, CC: true, NB: core.NBPropS1, HandlerPC: 0x4020},
	}
	for id, e := range entries {
		if err := p.SetEntry(id, e); err != nil {
			return err
		}
	}
	return nil
}

// bind points a location (register or memory word) at an allocation,
// maintaining reference counts and reporting a leak when an allocation
// loses its last reference while still live.
func (m *MemLeak) unref(base uint32, ev isa.Event) {
	ctx, ok := m.contexts[base]
	if !ok {
		return
	}
	ctx.refs--
	if ctx.refs <= 0 && !ctx.freed && !ctx.reported {
		ctx.reported = true
		m.reports = append(m.reports, Report{
			Tool: m.Name(), Kind: "memory-leak", PC: ev.PC, Addr: ctx.base,
			Seq: ev.Seq, Thread: ev.Thread,
			Detail: fmt.Sprintf("allocation #%d (%d bytes, malloc pc=%#x) lost its last reference", ctx.id, ctx.size, ctx.pc),
		})
	}
}

func (m *MemLeak) ref(base uint32) {
	if ctx, ok := m.contexts[base]; ok {
		ctx.refs++
	}
}

func (m *MemLeak) setRegBind(r isa.Reg, base uint32, ev isa.Event) {
	if r >= isa.NumRegs {
		return
	}
	old := m.regBind[r]
	if old == base {
		return
	}
	if old != 0 {
		m.unref(old, ev)
	}
	m.regBind[r] = base
	if base != 0 {
		m.ref(base)
	}
}

func (m *MemLeak) setMemBind(addr uint32, base uint32, ev isa.Event) {
	key := metadata.MDAddr(addr)
	old := m.memBind[key]
	if old == base {
		return
	}
	if old != 0 {
		m.unref(old, ev)
	}
	if base == 0 {
		delete(m.memBind, key)
	} else {
		m.memBind[key] = base
		m.ref(base)
	}
}

// Handle implements Monitor.
func (m *MemLeak) Handle(ev isa.Event, st *metadata.State, hc HandleCtx) HandleResult {
	switch ev.Kind {
	case isa.EvStackCall, isa.EvStackRet:
		// Frame words lose pointer status in bulk. Bindings for stack
		// addresses are not tracked (see package tests), so only the
		// critical metadata range-set happens here.
		st.Mem.SetRange(ev.Addr, ev.Size, mlNonPointer)
		return HandleResult{Cost: mlCostStack + int(ev.Size/64)*mlCostPerWord, Class: ClassStack}
	case isa.EvHighLevel:
		return m.handleHighLevel(ev, st)
	}

	switch ev.Op {
	case isa.OpLoad:
		s1, _, d := operands(hc, st, ev, true, false)
		if s1 == mlNonPointer && d == mlNonPointer {
			return HandleResult{Cost: mlCostFast, Class: ClassCC}
		}
		if hc.CritRegs {
			st.Regs.Store(ev.Dest, s1)
		}
		m.setRegBind(ev.Dest, m.memBind[metadata.MDAddr(ev.Addr)], ev)
		return m.slowResult(ev)
	case isa.OpStore:
		s1, _, d := operands(hc, st, ev, false, true)
		if s1 == mlNonPointer && d == mlNonPointer {
			return HandleResult{Cost: mlCostFast, Class: ClassCC}
		}
		st.Mem.Store(ev.Addr, s1)
		if !isStackAddr(ev.Addr) {
			var base uint32
			if s1 == mlPointer && ev.Src1 < isa.NumRegs {
				base = m.regBind[ev.Src1]
			}
			m.setMemBind(ev.Addr, base, ev)
		}
		return m.slowResult(ev)
	default: // integer ALU
		s1, s2, d := operands(hc, st, ev, false, false)
		if s1 == mlNonPointer && s2 == mlNonPointer && d == mlNonPointer {
			return HandleResult{Cost: mlCostFast, Class: ClassCC}
		}
		if hc.CritRegs {
			st.Regs.Store(ev.Dest, s1|s2)
		}
		var base uint32
		if s1 == mlPointer && ev.Src1 < isa.NumRegs {
			base = m.regBind[ev.Src1]
		} else if s2 == mlPointer && ev.Src2 < isa.NumRegs {
			base = m.regBind[ev.Src2]
		}
		m.setRegBind(ev.Dest, base, ev)
		return m.slowResult(ev)
	}
}

func (m *MemLeak) slowResult(ev isa.Event) HandleResult {
	res := HandleResult{Cost: mlCostSlow, Class: ClassSlow}
	if n := len(m.reports); n > 0 {
		res.Reports = m.reports
		m.reports = nil
	}
	return res
}

func (m *MemLeak) handleHighLevel(ev isa.Event, st *metadata.State) HandleResult {
	words := int(ev.Size / metadata.WordBytes)
	switch ev.Op {
	case isa.OpMalloc:
		ctx := &allocContext{id: m.nextID, pc: ev.PC, base: ev.Addr, size: ev.Size, refs: 0}
		m.nextID++
		m.contexts[ev.Addr] = ctx
		st.Mem.SetRange(ev.Addr, ev.Size, mlNonPointer)
		// The returned pointer lands in the destination register.
		if ev.Dest != isa.RegNone {
			st.Regs.Store(ev.Dest, mlPointer)
			m.setRegBind(ev.Dest, ev.Addr, ev)
		}
		return HandleResult{Cost: mlCostMalloc + words/16*mlCostPerWord, Class: ClassHigh}
	case isa.OpFree:
		if ctx, ok := m.contexts[ev.Addr]; ok {
			ctx.freed = true
		}
		st.Mem.SetRange(ev.Addr, ev.Size, mlNonPointer)
		return HandleResult{Cost: mlCostFree + words/16*mlCostPerWord, Class: ClassHigh}
	}
	return HandleResult{Cost: mlCostFast, Class: ClassHigh}
}

// Finalize implements Monitor: report allocations that are unreferenced and
// unfreed at program exit (definite leaks not yet reported in-line).
func (m *MemLeak) Finalize(st *metadata.State) []Report {
	out := append([]Report(nil), m.reports...)
	m.reports = nil
	var bases []uint32
	for b := range m.contexts {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		ctx := m.contexts[b]
		if !ctx.freed && !ctx.reported && ctx.refs <= 0 {
			ctx.reported = true
			out = append(out, Report{
				Tool: m.Name(), Kind: "memory-leak", Addr: ctx.base,
				Detail: fmt.Sprintf("allocation #%d (%d bytes, malloc pc=%#x) unreferenced at exit", ctx.id, ctx.size, ctx.pc),
			})
		}
	}
	return out
}

func isStackAddr(addr uint32) bool {
	return addr >= trace.StackTop-8*trace.StackStride
}
