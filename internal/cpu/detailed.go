package cpu

import (
	"context"
	"fmt"

	"fade/internal/isa"
	"fade/internal/mem"
	"fade/internal/sim"
	"fade/internal/trace"
)

// DetailedCore is a dependency-driven out-of-order pipeline model: a real
// reorder buffer, per-register readiness tracking over the stream's actual
// source/destination operands, cache-modelled load latencies, and in-order
// retirement at the core's width. It exists to cross-validate the
// calibrated rate-based AppCore (see the coremodel ablation): the two
// models must agree on which benchmarks are fast and which are
// memory-bound, even though the rate model folds dependency behaviour into
// a per-profile CPI term while this model derives it from the operands.
//
// The scheduling approximation is standard for analytical OoO models:
// within the ROB window, an instruction issues as soon as its sources are
// ready (infinite issue bandwidth), and retirement is in-order and
// width-limited. In-order cores additionally serialize issue.
type DetailedCore struct {
	kind Kind
	src  trace.Source
	hier *mem.Hierarchy
	rng  *sim.RNG

	robSize int
	rob     []robEntry // FIFO window, index 0 = oldest

	regReady  [isa.NumRegs]uint64 // cycle at which a register's value is available
	lastIssue uint64              // in-order cores: previous instruction's issue cycle

	cycle   uint64
	retired uint64
	done    bool

	// Branch handling: a taken-branch misprediction flushes the front
	// end; modeled as a fetch bubble with a per-kind penalty.
	fetchStallUntil uint64
}

type robEntry struct {
	completeAt uint64
	dest       isa.Reg
}

// ROBSize returns the reorder-buffer capacity of the core kind (Table 1:
// 48 entries for the 2-way core, 96 for the 4-way; in-order cores expose a
// small in-flight window).
func (k Kind) ROBSize() int {
	switch k {
	case OoO2:
		return 48
	case OoO4:
		return 96
	default:
		return 8
	}
}

// branchMissPenalty is the fetch-redirect cost of a mispredicted branch.
const branchMissPenalty = 12

// mispredictRate is the fraction of branches that mispredict under a
// conventional predictor on irregular integer code.
const mispredictRate = 0.04

// NewDetailedCore builds a detailed core over the instruction source.
func NewDetailedCore(kind Kind, src trace.Source, seed uint64) *DetailedCore {
	return &DetailedCore{
		kind:    kind,
		src:     src,
		hier:    mem.NewHierarchy(),
		rng:     sim.NewRNG(seed ^ 0xdeadc0de),
		robSize: kind.ROBSize(),
	}
}

// Done reports whether the stream is exhausted and the window drained.
func (c *DetailedCore) Done() bool { return c.done && len(c.rob) == 0 }

// Retired returns the number of retired instructions.
func (c *DetailedCore) Retired() uint64 { return c.retired }

// Cycle returns the current cycle.
func (c *DetailedCore) Cycle() uint64 { return c.cycle }

// Tick advances the pipeline by one cycle: retire completed instructions
// in order, then fetch/dispatch/issue new ones into the window. It
// implements sim.Component (the core keeps its own cycle counter, which the
// driving clock mirrors).
func (c *DetailedCore) Tick(cycle uint64) {
	width := int(c.kind.Width())

	// Retire up to width completed instructions from the head.
	for n := 0; n < width && len(c.rob) > 0; n++ {
		if c.rob[0].completeAt > c.cycle {
			break
		}
		c.rob = c.rob[1:]
		c.retired++
	}

	// Fetch and schedule new instructions while the window has space.
	for n := 0; n < width && len(c.rob) < c.robSize && !c.done; n++ {
		if c.cycle < c.fetchStallUntil {
			break
		}
		in, ok := c.src.Next()
		if !ok {
			c.done = true
			break
		}
		c.schedule(in)
	}
	c.cycle++
}

// schedule computes the instruction's issue and completion cycles from its
// register dependencies and operation latency.
func (c *DetailedCore) schedule(in isa.Instr) {
	ready := c.cycle
	if in.Src1 < isa.NumRegs && c.regReady[in.Src1] > ready {
		ready = c.regReady[in.Src1]
	}
	if in.Src2 < isa.NumRegs && c.regReady[in.Src2] > ready {
		ready = c.regReady[in.Src2]
	}
	if c.kind == InOrder && c.lastIssue > ready {
		// In-order issue: cannot start before the previous instruction.
		ready = c.lastIssue
	}
	c.lastIssue = ready

	lat := c.latency(in)
	complete := ready + lat

	if in.Dest < isa.NumRegs {
		c.regReady[in.Dest] = complete
	}
	switch in.Op {
	case isa.OpBranch, isa.OpJmpReg:
		if c.rng.Bool(mispredictRate) {
			// Redirect fetch once the branch resolves.
			c.fetchStallUntil = complete + branchMissPenalty
		}
	case isa.OpCall, isa.OpRet:
		c.fetchStallUntil = ready + 2 // pipeline redirect
	}
	c.rob = append(c.rob, robEntry{completeAt: complete, dest: in.Dest})
}

// latency returns the execution latency of the instruction, with loads
// priced by the cache hierarchy.
func (c *DetailedCore) latency(in isa.Instr) uint64 {
	switch in.Op {
	case isa.OpLoad:
		return uint64(c.hier.AccessLatency(in.Addr))
	case isa.OpStore:
		c.hier.AccessLatency(in.Addr) // moves the line; store buffer hides latency
		return 1
	case isa.OpFPALU:
		return 3
	case isa.OpMalloc, isa.OpFree, isa.OpTaintSrc:
		return 30 // library-call overhead
	default:
		return 1
	}
}

// RunDetailed executes the whole stream on the sim kernel and returns
// (cycles, instructions). A stream that fails to drain within maxCycles
// returns the partial counts alongside an error wrapping
// sim.ErrCycleCapExceeded — truncation is never silent — and a run whose
// ctx is canceled or past its deadline stops at a scheduler checkpoint
// with an error wrapping sim.ErrCanceled.
func RunDetailed(ctx context.Context, kind Kind, src trace.Source, seed uint64, maxCycles uint64) (uint64, uint64, error) {
	c := NewDetailedCore(kind, src, seed)
	clock := sim.NewClock()
	clock.Register(c)
	sched := &sim.Scheduler{Clock: clock, MaxCycles: maxCycles, Ctx: ctx,
		Done: func() bool { return c.Done() }}
	out := sched.Run()
	if !out.Completed {
		return c.Cycle(), c.Retired(), fmt.Errorf("cpu: detailed core run aborted: %w", out.Err)
	}
	return c.Cycle(), c.Retired(), nil
}
