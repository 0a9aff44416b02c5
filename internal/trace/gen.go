package trace

import (
	"fade/internal/isa"
	"fade/internal/sim"
)

// Source yields a dynamic instruction stream. Next returns false when the
// stream is exhausted.
type Source interface {
	Next() (isa.Instr, bool)
}

// regTag is the generator's ground-truth value tag for a register: whether
// it currently holds a heap pointer and whether it is tainted. The monitors
// never see these tags — they reconstruct equivalent metadata purely from
// the event stream — but the generator needs them to synthesize a
// semantically consistent program (pointer arithmetic produces pointers,
// loads of tainted words produce tainted registers, and so on).
type regTag struct {
	ptr     bool
	tainted bool
	undef   bool // value derived from uninitialized memory
}

// memTagEntry tags a stored application word.
type memTagEntry struct {
	ptr     bool
	tainted bool
	init    bool // the word has been stored since its (re)allocation
	undef   bool // the stored value itself derived from uninitialized data
}

// frame is one live stack frame.
type frame struct {
	base      uint32 // lowest address of the frame
	size      uint32
	remaining int       // instructions left in this function body
	stored    [8]uint32 // ring of recently stored in-frame offsets
	nstored   int
}

// context is the per-thread execution state.
type context struct {
	thread  uint8
	pc      uint32
	frames  []frame
	regs    [isa.NumRegs]regTag
	ptrRegs int // registers currently holding pointers (density control)
	// storedRing remembers recently stored heap addresses so loads can
	// target initialized data with high probability (real programs read
	// what they wrote).
	storedRing [32]uint32
	nstored    int
	retPCs     []uint32
	stream     uint32 // private streaming cursor (per-thread arrays)
}

func (c *context) top() *frame { return &c.frames[len(c.frames)-1] }

// setReg writes a register tag, maintaining the pointer-density count.
func (c *context) setReg(r isa.Reg, t regTag) {
	if r >= isa.NumRegs {
		return
	}
	if c.regs[r].ptr != t.ptr {
		if t.ptr {
			c.ptrRegs++
		} else {
			c.ptrRegs--
		}
	}
	c.regs[r] = t
}

// world is the state shared by all threads of one synthetic program.
type world struct {
	prof     *Profile
	rng      *sim.RNG
	heap     *heap
	memTag   map[uint32]memTagEntry // keyed by appAddr >> 2
	globals  []uint32               // hot global addresses
	shared   []allocation           // parallel: shared hot allocations
	anyTaint bool

	// Phase state: hot phases model the loop nests where retirement and
	// monitored-event density spike, producing the queue bursts of
	// Fig. 3. Cold phases model pointer-chasing/branchy regions.
	hot       bool
	phaseLeft int
}

// StreamBase/StreamSize define the statically allocated streaming arena that
// models the large flat arrays of memory-bound benchmarks (mcf, libquantum).
const (
	StreamBase uint32 = 0x8000_0000
	StreamSize uint32 = 8 << 20
)

// Generator synthesizes the dynamic instruction stream for one benchmark.
// It implements Source. For parallel profiles it round-robins between
// per-thread contexts every QuantumInstrs instructions, modeling the paper's
// four threads time-sliced on one core (Section 6).
type Generator struct {
	w           *world
	ctxs        []*context
	cur         int
	quantumLeft int
	limit       uint64
	emitted     uint64
	pending     []isa.Instr

	// Bug-injection bookkeeping for example applications.
	taintJumpArmed bool

	mallocs uint64
	frees   uint64
	calls   uint64
	rets    uint64
	taints  uint64
}

// New returns a generator for prof that emits at most limit instructions
// (0 means unbounded), seeded deterministically.
func New(prof *Profile, seed uint64, limit uint64) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	w := &world{
		prof:   prof,
		rng:    sim.NewRNG(seed ^ hashName(prof.Name)),
		heap:   newHeap(),
		memTag: make(map[uint32]memTagEntry),
	}
	// A small hot set of global addresses plus the tail of the region for
	// cold accesses.
	for i := 0; i < 64; i++ {
		w.globals = append(w.globals, GlobalBase+uint32(i)*64+uint32(w.rng.Intn(16))*4)
	}
	threads := 1
	if prof.Parallel {
		threads = prof.Threads
	}
	g := &Generator{w: w, limit: limit, quantumLeft: prof.QuantumInstrs}
	for t := 0; t < threads; t++ {
		sp := StackTop - uint32(t)*StackStride
		c := &context{
			thread: uint8(t),
			pc:     CodeBase + uint32(t)*0x1000,
			frames: []frame{{base: sp - 4096, size: 4096, remaining: 1 << 30}},
		}
		g.ctxs = append(g.ctxs, c)
	}
	// Pre-populate the heap so the first accesses have targets, and build
	// the shared set for parallel benchmarks. Each warm allocation is
	// announced through a pending malloc event (plus an anchoring pointer
	// store) so monitors see a well-formed allocation history.
	// Warm up to the steady-state live-allocation count so malloc and
	// free activity balances from the start.
	warm := prof.LiveTarget
	if warm < 8 {
		warm = 8
	}
	c0 := g.ctxs[0]
	for i := 0; i < warm; i++ {
		a := w.heap.alloc(uint32(w.rng.Pareto(prof.AllocMinOr(16), prof.AllocMaxOr(4096), 1.3)))
		if prof.Parallel && i < 32 {
			w.shared = append(w.shared, a)
		}
		d := isa.Reg(1 + i%8)
		c0.setReg(d, regTag{ptr: true})
		g.pending = append(g.pending,
			isa.Instr{PC: c0.pc, Op: isa.OpMalloc, Dest: d, Addr: a.base, Size: a.size},
			g.anchorStore(c0, d, a.slot))
	}
	// Taint-propagating programs read external input during startup; an
	// initial taint source keeps TaintCheck's filtering statistics stable
	// across simulation lengths.
	if prof.TaintPer1K > 0 {
		g.pending = append(g.pending, g.buildTaintSrc(c0))
	}
	return g
}

// anchorStore builds the store that parks an allocation's pointer in the
// pointer table, keeping the allocation referenced for its lifetime.
func (g *Generator) anchorStore(c *context, src isa.Reg, slot uint32) isa.Instr {
	g.w.memTag[slot>>2] = memTagEntry{ptr: true, init: true}
	return isa.Instr{
		PC: c.pc, Op: isa.OpStore, Src1: src, Src2: isa.RegNone,
		Dest: isa.RegNone, Addr: slot, Size: 4, Thread: c.thread,
	}
}

// AllocMinOr returns AllocMin or def when unset; likewise AllocMaxOr.
func (p *Profile) AllocMinOr(def float64) float64 {
	if p.AllocMin > 0 {
		return p.AllocMin
	}
	return def
}

// AllocMaxOr returns AllocMax or def when unset.
func (p *Profile) AllocMaxOr(def float64) float64 {
	if p.AllocMax > 0 {
		return p.AllocMax
	}
	return def
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Emitted returns the number of instructions produced so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Mallocs, Frees, Calls, Rets, Taints report high-level event counts.
func (g *Generator) Mallocs() uint64 { return g.mallocs }
func (g *Generator) Frees() uint64   { return g.frees }
func (g *Generator) Calls() uint64   { return g.calls }
func (g *Generator) Rets() uint64    { return g.rets }
func (g *Generator) Taints() uint64  { return g.taints }

// Leaked returns the number of allocations dropped without free.
func (g *Generator) Leaked() int { return g.w.heap.leaked }

// Next implements Source.
func (g *Generator) Next() (isa.Instr, bool) {
	if g.limit > 0 && g.emitted >= g.limit {
		return isa.Instr{}, false
	}
	if len(g.pending) > 0 {
		in := g.pending[0]
		g.pending = g.pending[1:]
		g.emitted++
		return in, true
	}
	if g.w.prof.Parallel {
		g.quantumLeft--
		if g.quantumLeft <= 0 {
			g.cur = (g.cur + 1) % len(g.ctxs)
			g.quantumLeft = g.w.prof.QuantumInstrs
		}
	}
	in := g.step(g.ctxs[g.cur])
	g.emitted++
	return in, true
}

// Hot reports whether the generator is currently in a hot phase. The core
// timing model uses this to scale its dependency-hazard component, so hot
// phases run at a higher IPC (denser monitored-event production).
func (g *Generator) Hot() bool { return g.w.hot }

// Close implements Stream; a generator holds nothing to release.
func (g *Generator) Close() {}

// stepPhase advances the hot/cold phase state machine.
func (w *world) stepPhase() {
	p := w.prof
	if p.PhaseLen <= 0 {
		return
	}
	w.phaseLeft--
	if w.phaseLeft > 0 {
		return
	}
	if w.hot {
		w.hot = false
		frac := p.PhaseHotFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		w.phaseLeft = int(float64(p.PhaseLen) * (1 - frac) / frac)
	} else {
		w.hot = true
		w.phaseLeft = p.PhaseLen
	}
}

// step produces the next instruction for context c.
func (g *Generator) step(c *context) isa.Instr {
	p := g.w.prof
	rng := g.w.rng
	g.w.stepPhase()

	// Function return when the current body is exhausted.
	if c.top().remaining <= 0 && len(c.frames) > 1 {
		return g.emitRet(c)
	}
	c.top().remaining--

	// High-level and stack events by rate.
	switch {
	case rng.Bool(p.CallPer1K/1000) && len(c.frames) < 64:
		return g.emitCall(c)
	case rng.Bool(p.MallocPer1K / 1000):
		if len(g.w.heap.live) > p.LiveTarget {
			return g.emitFree(c)
		}
		return g.emitMalloc(c)
	case p.TaintPer1K > 0 && rng.Bool(p.TaintPer1K/1000):
		return g.emitTaintSrc(c)
	}

	// Regular instruction by mix. Hot phases suppress FP and halve
	// branches, shifting the remainder to (monitored) integer work.
	loadF, storeF, fpF, brF, jmpF := p.LoadFrac, p.StoreFrac, p.FPALUFrac, p.BranchFrac, p.JmpRegFrac
	if g.w.hot {
		fpF = 0
		brF /= 2
	}
	roll := rng.Float64()
	switch {
	case roll < loadF:
		return g.emitLoad(c)
	case roll < loadF+storeF:
		return g.emitStore(c)
	case roll < loadF+storeF+fpF:
		return g.emitFPALU(c)
	case roll < loadF+storeF+fpF+brF:
		return g.emitBranch(c)
	case roll < loadF+storeF+fpF+brF+jmpF:
		return g.emitJmpReg(c)
	default:
		return g.emitALU(c)
	}
}

func (g *Generator) advancePC(c *context) uint32 {
	pc := c.pc
	c.pc += 4
	// Stay inside a 64 KB function region; taken branches wrap.
	if c.pc&0xFFFF == 0 {
		c.pc -= 0x8000
	}
	return pc
}

// pickReg selects a register, optionally preferring one whose tag satisfies
// want. Registers 1-31 are eligible (r0 is hardwired zero, SPARC-style).
func (g *Generator) pickReg(c *context, want func(regTag) bool, prob float64) isa.Reg {
	rng := g.w.rng
	if want != nil && rng.Bool(prob) {
		// Scan from a random start for a matching register.
		start := 1 + rng.Intn(isa.NumRegs-1)
		for i := 0; i < isa.NumRegs-1; i++ {
			r := 1 + (start-1+i)%(isa.NumRegs-1)
			if want(c.regs[r]) {
				return isa.Reg(r)
			}
		}
	}
	return isa.Reg(1 + rng.Intn(isa.NumRegs-1))
}

func isPtr(t regTag) bool     { return t.ptr }
func isTainted(t regTag) bool { return t.tainted }

// pickValueReg selects a source register that holds a pointer with
// probability ~ptrProb and a data (non-pointer) value otherwise, with a
// weak mean-reverting controller keeping register pointer density near the
// profile's target. Pointer density in real programs is a stable property
// of the working set; the raw stochastic dynamics here have a sharp phase
// transition (OR-composition amplifies, single-source moves decay), so the
// controller pins the equilibrium the profile asks for instead of leaving
// it to knife-edge parameter tuning.
func (g *Generator) pickValueReg(c *context, ptrProb float64) isa.Reg {
	target := g.w.prof.PtrALUFrac
	density := float64(c.ptrRegs) / float64(isa.NumRegs-1)
	switch {
	case target <= 0:
		ptrProb = 0
	case density > 1.25*target:
		ptrProb *= 0.1
	case density < 0.8*target && ptrProb > 0:
		if boosted := ptrProb*2 + 0.15; boosted > ptrProb {
			ptrProb = boosted
		}
	}
	if g.w.rng.Bool(ptrProb) {
		return g.pickReg(c, isPtr, 1.0)
	}
	return g.pickReg(c, func(t regTag) bool { return !t.ptr && !t.undef }, 0.9)
}

// emitALU produces integer computation. Most dynamic ALU instructions have
// one register source (the other operand is an immediate), which is what
// keeps pointer/taint density in equilibrium: single-source moves overwrite
// destinations with their source's status, while two-source ops combine
// statuses with OR (pointer arithmetic, taint mixing).
func (g *Generator) emitALU(c *context) isa.Instr {
	p, rng := g.w.prof, g.w.rng
	d := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
	if rng.Bool(0.72) {
		// Single-source (reg op imm) form: mostly immediate arithmetic
		// on data values, so it strongly prefers non-pointer sources.
		// This is the sink that keeps pointer density in equilibrium
		// against the OR-composition of two-source ops.
		s1 := g.pickReg(c, func(t regTag) bool { return !t.ptr && !t.undef }, 0.9)
		c.setReg(d, c.regs[s1])
		return isa.Instr{PC: g.advancePC(c), Op: isa.OpALU, Src1: s1, Src2: isa.RegNone, Dest: d, Thread: c.thread}
	}
	// Two-source form: address computation (base + offset) selects a
	// pointer first source with the profile's bias; the second source is
	// almost always a data value (index, length, constant).
	s1 := g.pickValueReg(c, p.PtrALUFrac)
	s2 := g.pickValueReg(c, 0.05*p.PtrALUFrac)
	t1, t2 := c.regs[s1], c.regs[s2]
	c.setReg(d, regTag{ptr: t1.ptr || t2.ptr, tainted: t1.tainted || t2.tainted, undef: t1.undef || t2.undef})
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpALU, Src1: s1, Src2: s2, Dest: d, Thread: c.thread}
}

// emitFPALU produces floating-point computation. FP operands live in the
// architecturally separate FP register file (SPARC), so integer register
// tags are untouched; monitors that elide FP instructions (MemLeak) stay
// consistent with the ones that track them (MemCheck).
func (g *Generator) emitFPALU(c *context) isa.Instr {
	rng := g.w.rng
	s1 := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
	s2 := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
	d := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpFPALU, Src1: s1, Src2: s2, Dest: d, Thread: c.thread}
}

func (g *Generator) emitBranch(c *context) isa.Instr {
	rng := g.w.rng
	s1 := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
	s2 := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpBranch, Src1: s1, Src2: s2, Dest: isa.RegNone, Thread: c.thread}
}

func (g *Generator) emitJmpReg(c *context) isa.Instr {
	p := g.w.prof
	var s1 isa.Reg
	if p.Inject.TaintedJump && g.w.anyTaint && g.taintJumpArmed {
		s1 = g.pickReg(c, isTainted, 1.0)
	} else {
		s1 = g.pickReg(c, nil, 0)
	}
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpJmpReg, Src1: s1, Dest: isa.RegNone, Thread: c.thread}
}

// chooseAddr picks a load/store target address and reports whether it is a
// stack access.
func (g *Generator) chooseAddr(c *context, forLoad bool) (addr uint32, stack bool) {
	p, rng, w := g.w.prof, g.w.rng, g.w

	// Injected wild access (example applications only).
	if p.Inject.WildAccessPer1K > 0 && rng.Bool(p.Inject.WildAccessPer1K/1000) {
		return w.heap.next + 1<<20 + uint32(rng.Intn(4096))*4, false
	}

	if rng.Bool(p.StackMemFrac) {
		f := c.top()
		off := uint32(rng.Intn(int(f.size/4))) * 4
		// Both loads and stores strongly favour already-touched slots:
		// locals are read-modify-written many times per activation. The
		// residual fresh-offset stores are the first-writes that
		// MemCheck's redundant-update filtering cannot elide.
		if f.nstored > 0 && rng.Bool(0.95) {
			off = f.stored[rng.Intn(min(f.nstored, len(f.stored)))]
		}
		if !forLoad {
			f.stored[f.nstored%len(f.stored)] = off
			f.nstored++
		}
		return f.base + off, true
	}
	if rng.Bool(p.GlobalMemFrac) {
		if rng.Bool(0.9) {
			// Hot globals are partitioned per thread (parallel codes
			// keep per-thread state; true sharing flows through the
			// shared allocation set instead).
			n := len(w.globals) / len(g.ctxs)
			base := int(c.thread) * n
			return w.globals[base+rng.Intn(n)], false
		}
		return GlobalBase + uint32(rng.Intn(int(GlobalSize/4)))*4, false
	}
	// Heap access. Streaming walks are sequential (and prefetchable);
	// random-arena accesses model pointer chasing over a huge working set
	// (mcf) and defeat both caches and prefetchers.
	if rng.Bool(p.StreamFrac) {
		// Each thread streams through its own stripe of the arena
		// (parallel codes partition their grids; serial codes have one
		// stripe).
		stripe := StreamSize / uint32(len(g.ctxs))
		c.stream += 64
		if c.stream >= stripe {
			c.stream = 0
		}
		return StreamBase + uint32(c.thread)*stripe + c.stream, false
	}
	if rng.Bool(p.RandomMemFrac) {
		stripe := StreamSize / uint32(len(g.ctxs))
		return StreamBase + uint32(c.thread)*stripe + uint32(rng.Intn(int(stripe/4)))*4, false
	}
	// Parallel benchmarks hit the shared set with SharedFrac.
	if p.Parallel && len(w.shared) > 0 && rng.Bool(p.SharedFrac) {
		a := w.shared[rng.Intn(len(w.shared))]
		return a.base + uint32(rng.Intn(int(a.size/4)))*4, false
	}
	if forLoad {
		// Pointer-chasing: reload a live allocation's pointer from the
		// pointer table (a pointer field of a data structure). This is
		// the steady pointer-injection path of linked-structure codes.
		if p.PtrLoadFrac > 0 && rng.Bool(p.PtrLoadFrac) {
			if i, ok := w.heap.pick(rng, p.HotAllocs, 0.9); ok {
				return w.heap.live[i].slot, false
			}
		}
		// Prefer tainted buffers when taint is live (taint benchmarks).
		if w.anyTaint && rng.Bool(p.TaintFrac) {
			for i := len(w.heap.live) - 1; i >= 0 && i >= len(w.heap.live)-16; i-- {
				if w.heap.live[i].tainted {
					a := w.heap.live[i]
					return a.base + uint32(rng.Intn(int(a.size/4)))*4, false
				}
			}
		}
		// Read recently written data most of the time.
		if c.nstored > 0 && rng.Bool(0.85) {
			return c.storedRing[rng.Intn(min(c.nstored, len(c.storedRing)))], false
		}
	}
	// Stores also mostly overwrite recently written heap words
	// (read-modify-write); fresh words are first-writes. A ring entry
	// whose word has been freed since (no longer initialized) is stale
	// and must not be written — programs do not store to freed memory.
	if !forLoad && c.nstored > 0 && rng.Bool(0.92) {
		cand := c.storedRing[rng.Intn(min(c.nstored, len(c.storedRing)))]
		if g.initialized(cand) {
			return cand, false
		}
	}
	if i, ok := w.heap.pick(rng, p.HotAllocs, 0.9); ok {
		a := w.heap.live[i]
		addr = a.base + uint32(rng.Intn(int(a.size/4)))*4
		if !forLoad {
			c.storedRing[c.nstored%len(c.storedRing)] = addr
			c.nstored++
		}
		return addr, false
	}
	return w.globals[rng.Intn(len(w.globals))], false
}

// initialized reports whether a load from addr observes initialized data:
// statically initialized regions, or words stored since their allocation.
func (g *Generator) initialized(addr uint32) bool {
	switch {
	case addr >= GlobalBase && addr < GlobalBase+GlobalSize:
		return true
	case addr >= StreamBase && addr < StreamBase+StreamSize:
		return true
	case addr >= PtrTableBase && addr < PtrTableBase+PtrTableSize:
		return true
	}
	e := g.w.memTag[addr>>2]
	return e.init && !e.undef
}

func (g *Generator) emitLoad(c *context) isa.Instr {
	addr, stack := g.chooseAddr(c, true)
	// Real programs almost never read uninitialized memory; redirect
	// would-be-uninitialized reads to recently written data. The small
	// residue is the background uninitialized-read rate that MemCheck's
	// filtering cannot elide (its ~2% unfiltered share, Table 2).
	if !g.initialized(addr) && g.w.rng.Bool(0.996) {
		if c.nstored > 0 {
			addr = c.storedRing[g.w.rng.Intn(min(c.nstored, len(c.storedRing)))]
			stack = false
		}
		if !g.initialized(addr) {
			addr = g.w.globals[g.w.rng.Intn(len(g.w.globals))]
			stack = false
		}
	}
	d := isa.Reg(1 + g.w.rng.Intn(isa.NumRegs-1))
	tag := g.w.memTag[addr>>2]
	c.setReg(d, regTag{ptr: tag.ptr, tainted: tag.tainted, undef: tag.undef || !g.initialized(addr)})
	if c.regs[d].tainted {
		g.taintJumpArmed = true
	}
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpLoad, Src1: isa.RegNone, Src2: isa.RegNone,
		Dest: d, Addr: addr, Size: 4, Thread: c.thread, Stack: stack}
}

func (g *Generator) emitStore(c *context) isa.Instr {
	p := g.w.prof
	addr, stack := g.chooseAddr(c, false)
	s := g.pickValueReg(c, p.PtrStoreFrac)
	t := c.regs[s]
	g.w.memTag[addr>>2] = memTagEntry{ptr: t.ptr, tainted: t.tainted, init: true, undef: t.undef}
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpStore, Src1: s, Src2: isa.RegNone,
		Dest: isa.RegNone, Addr: addr, Size: 4, Thread: c.thread, Stack: stack}
}

func (g *Generator) emitCall(c *context) isa.Instr {
	p, rng := g.w.prof, g.w.rng
	size := uint32(rng.Pareto(p.FrameMin, p.FrameMax, 1.5))
	size = (size + 15) &^ 15
	base := c.top().base - size
	body := rng.Geometric(1000 / maxf(p.CallPer1K, 0.1))
	for wi := uint32(0); wi < size/4 && wi < 512; wi++ {
		delete(g.w.memTag, (base>>2)+wi)
	}
	c.frames = append(c.frames, frame{base: base, size: size, remaining: body})
	c.retPCs = append(c.retPCs, c.pc+4)
	pc := c.pc
	c.pc = CodeBase + uint32(rng.Intn(1024))*0x100 // jump to callee region
	g.calls++
	return isa.Instr{PC: pc, Op: isa.OpCall, Addr: base, Size: size, Thread: c.thread}
}

func (g *Generator) emitRet(c *context) isa.Instr {
	f := c.top()
	c.frames = c.frames[:len(c.frames)-1]
	pc := c.pc
	if n := len(c.retPCs); n > 0 {
		c.pc = c.retPCs[n-1]
		c.retPCs = c.retPCs[:n-1]
	}
	g.rets++
	return isa.Instr{PC: pc, Op: isa.OpRet, Addr: f.base, Size: f.size, Thread: c.thread}
}

func (g *Generator) emitMalloc(c *context) isa.Instr {
	p, rng, w := g.w.prof, g.w.rng, g.w
	a := w.heap.alloc(uint32(rng.Pareto(p.AllocMinOr(16), p.AllocMaxOr(4096), 1.3)))
	d := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
	c.setReg(d, regTag{ptr: true})
	// Drop stale value tags from the (possibly recycled) address range:
	// fresh heap memory is uninitialized and holds no pointers.
	words := int(a.size / 4)
	for i := 0; i < words; i++ {
		delete(w.memTag, (a.base>>2)+uint32(i))
	}
	// Anchor the allocation in the pointer table, then initialize the
	// start of the buffer as real programs typically do (this keeps
	// MemCheck's uninitialized-read rate at a realistic level).
	g.pending = append(g.pending, g.anchorStore(c, d, a.slot))
	for i := 0; i < min(words, 4); i++ {
		addr := a.base + uint32(i)*4
		src := g.pickReg(c, func(t regTag) bool { return !t.ptr && !t.tainted && !t.undef }, 1.0)
		// The pick can fall back to an arbitrary register when every
		// register carries a tag; the scripted word's tag must reflect
		// whatever the store actually writes.
		st := c.regs[src]
		g.w.memTag[addr>>2] = memTagEntry{ptr: st.ptr, tainted: st.tainted, undef: st.undef, init: true}
		g.pending = append(g.pending, isa.Instr{
			PC: c.pc, Op: isa.OpStore, Src1: src,
			Src2: isa.RegNone, Dest: isa.RegNone, Addr: addr, Size: 4, Thread: c.thread,
		})
		c.storedRing[c.nstored%len(c.storedRing)] = addr
		c.nstored++
	}
	g.mallocs++
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpMalloc, Dest: d, Addr: a.base, Size: a.size, Thread: c.thread}
}

func (g *Generator) emitFree(c *context) isa.Instr {
	p, rng, w := g.w.prof, g.w.rng, g.w
	i := rng.Intn(len(w.heap.live))
	if p.Inject.LeakFrac > 0 && rng.Bool(p.Inject.LeakFrac) {
		// A leak: the allocation leaves the live set without a free, and
		// its pointer-table anchor is overwritten with a non-pointer —
		// the allocation loses its last reference.
		a := w.heap.dropAt(i)
		src := g.pickReg(c, func(t regTag) bool { return !t.ptr }, 1.0)
		c.setReg(src, regTag{})
		w.memTag[a.slot>>2] = memTagEntry{init: true}
		return isa.Instr{
			PC: g.advancePC(c), Op: isa.OpStore, Src1: src, Src2: isa.RegNone,
			Dest: isa.RegNone, Addr: a.slot, Size: 4, Thread: c.thread,
		}
	}
	a := w.heap.freeAt(i)
	for wi := 0; wi < int(a.size/4); wi++ {
		delete(w.memTag, (a.base>>2)+uint32(wi))
	}
	g.frees++
	return isa.Instr{PC: g.advancePC(c), Op: isa.OpFree, Addr: a.base, Size: a.size, Thread: c.thread}
}

func (g *Generator) emitTaintSrc(c *context) isa.Instr {
	in := g.buildTaintSrc(c)
	in.PC = g.advancePC(c)
	return in
}

// buildTaintSrc marks a buffer as carrying external input and returns the
// corresponding high-level event.
func (g *Generator) buildTaintSrc(c *context) isa.Instr {
	rng, w := g.w.rng, g.w
	var a *allocation
	if i, ok := w.heap.pick(rng, w.prof.HotAllocs, 0.9); ok {
		a = &w.heap.live[i]
	} else {
		na := w.heap.alloc(256)
		a = &na
	}
	a.tainted = true
	w.anyTaint = true
	words := int(a.size / 4)
	if words > 64 {
		words = 64 // external inputs arrive in bounded chunks
	}
	for i := 0; i < words; i++ {
		k := (a.base + uint32(i)*4) >> 2
		e := w.memTag[k]
		e.tainted = true // taint marks the value; pointerness is preserved
		w.memTag[k] = e
	}
	g.taints++
	return isa.Instr{PC: c.pc, Op: isa.OpTaintSrc, Addr: a.base, Size: uint32(words) * 4, Thread: c.thread}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
