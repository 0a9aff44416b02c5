package metadata

import (
	"sync/atomic"

	"fade/internal/isa"
)

// Word metadata granularity: one metadata byte shadows one 4-byte
// application word. All evaluated monitors fit their critical state in a
// byte (Section 6: two states for AddrCheck/TaintCheck, three for MemCheck,
// pointerness for MemLeak, thread-status byte for AtomCheck).
const (
	WordBytes = 4
	// PageBytes is the metadata page size used for M-TLB translations.
	// One 4 KB metadata page shadows 16 KB of application address space.
	PageBytes = 4096
	pageShift = 12
)

// MDAddr translates an application byte address to its metadata byte
// address: one metadata byte per application word.
func MDAddr(appAddr uint32) uint32 { return appAddr >> 2 }

// MDPage returns the metadata page number holding the metadata for appAddr.
func MDPage(appAddr uint32) uint32 { return MDAddr(appAddr) >> pageShift }

// MTLBSlabShift sizes the application region covered by one M-TLB entry.
// The monitor allocates shadow memory in large aligned slabs, so a single
// translation covers a 128 KB application region (32 KB of metadata).
const MTLBSlabShift = 17

// MTLBSlab returns the M-TLB tag for appAddr.
func MTLBSlab(appAddr uint32) uint32 { return appAddr >> MTLBSlabShift }

// AppPageOfMD returns the first application address shadowed by the given
// metadata page (the inverse mapping, used by tests).
func AppPageOfMD(mdPage uint32) uint32 { return mdPage << (pageShift + 2) }

// Memory is the sparse metadata memory space, keyed by metadata address.
// Pages are allocated on first touch and zero-filled; the zero metadata
// value must therefore be each monitor's "default" state (e.g. unallocated,
// untainted, non-pointer), which all evaluated monitors satisfy.
//
// Range operations work a page at a time. A range that covers a whole page
// with one value points the page at a process-wide, read-only uniform page
// holding that value instead of filling private bytes; the first Store or
// partial SetRange that would change such a page copies it first
// (copy-on-write). Bulk initialization of large static regions therefore
// costs one directory entry per page and allocates nothing.
type Memory struct {
	pages map[uint32]*[PageBytes]byte
	// writes counts metadata mutations, used by differential tests.
	writes uint64
}

const pageMask = PageBytes - 1

// uniform holds the shared read-only pages, one per metadata value, built
// on first use. They are never written, so any number of Memories (and
// concurrent runs) may point at them.
var uniform [256]atomic.Pointer[[PageBytes]byte]

// uniformPage returns the shared page filled with v.
func uniformPage(v byte) *[PageBytes]byte {
	if p := uniform[v].Load(); p != nil {
		return p
	}
	p := new([PageBytes]byte)
	for i := range p {
		p[i] = v
	}
	if uniform[v].CompareAndSwap(nil, p) {
		return p
	}
	return uniform[v].Load()
}

// shared reports whether page is one of the read-only uniform pages. A
// uniform page for value v holds v in every byte, so one pointer
// comparison decides.
func shared(page *[PageBytes]byte) bool {
	return page == uniform[page[0]].Load()
}

// NewMemory returns an empty metadata memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[PageBytes]byte)}
}

// Load returns the metadata byte shadowing the application word at appAddr.
func (m *Memory) Load(appAddr uint32) byte {
	md := MDAddr(appAddr)
	page, ok := m.pages[md>>pageShift]
	if !ok {
		return 0
	}
	return page[md&pageMask]
}

// Store sets the metadata byte shadowing the application word at appAddr.
func (m *Memory) Store(appAddr uint32, v byte) {
	md := MDAddr(appAddr)
	pn := md >> pageShift
	page, ok := m.pages[pn]
	if !ok && v == 0 {
		return // zero store to an untouched page is a no-op
	}
	m.writes++
	if page = m.writable(pn, page, v); page != nil {
		page[md&pageMask] = v
	}
}

// writable returns the private page pn (currently page, nil when
// untouched) ready to take value v, allocating or copying a shared page as
// needed. It returns nil when page is a shared page already holding v
// everywhere, so the write would change nothing.
func (m *Memory) writable(pn uint32, page *[PageBytes]byte, v byte) *[PageBytes]byte {
	switch {
	case page == nil:
		page = new([PageBytes]byte)
	case shared(page):
		if page[0] == v {
			return nil
		}
		cp := *page
		page = &cp
	default:
		return page
	}
	m.pages[pn] = page
	return page
}

// SetRange sets the metadata bytes shadowing the application byte range
// [base, base+size) to v — the bulk operation performed by the Stack-Update
// Unit for frame allocation/deallocation and by malloc/free handlers. A
// range running past the top of the address space stops there.
func (m *Memory) SetRange(base, size uint32, v byte) {
	if size == 0 {
		return
	}
	end := uint64(base) + uint64(size)
	if end > 1<<32 {
		end = 1 << 32
	}
	first, last := MDAddr(base), uint32((end-1)>>2)
	firstPN, lastPN := first>>pageShift, last>>pageShift
	for pn := firstPN; ; pn++ {
		lo, hi := uint32(0), uint32(pageMask)
		if pn == firstPN {
			lo = first & pageMask
		}
		if pn == lastPN {
			hi = last & pageMask
		}
		m.fillPage(pn, lo, hi, v)
		if pn == lastPN {
			return
		}
	}
}

// fillPage sets bytes [lo, hi] of metadata page pn to v.
func (m *Memory) fillPage(pn, lo, hi uint32, v byte) {
	page, ok := m.pages[pn]
	if !ok && v == 0 {
		return // zero fill over an untouched page is a no-op
	}
	m.writes += uint64(hi - lo + 1)
	if lo == 0 && hi == pageMask {
		m.pages[pn] = uniformPage(v)
		return
	}
	if page = m.writable(pn, page, v); page != nil {
		fill := page[lo : hi+1]
		for i := range fill {
			fill[i] = v
		}
	}
}

// Writes returns the number of metadata mutations performed.
func (m *Memory) Writes() uint64 { return m.writes }

// Pages returns the number of metadata pages touched.
func (m *Memory) Pages() int { return len(m.pages) }

// Snapshot returns a copy of all non-zero metadata bytes keyed by metadata
// address. It is used by differential tests that compare software-only
// monitoring against FADE-accelerated monitoring.
func (m *Memory) Snapshot() map[uint32]byte {
	out := make(map[uint32]byte)
	for pn, page := range m.pages {
		for i, v := range page {
			if v != 0 {
				out[pn<<pageShift|uint32(i)] = v
			}
		}
	}
	return out
}

// Registers is the metadata register file (MD RF) shadowing the
// architectural integer registers.
type Registers struct {
	md [isa.NumRegs]byte
}

// Load returns the metadata of register r; absent operands (RegNone) read
// as zero, the default metadata state.
func (r *Registers) Load(reg isa.Reg) byte {
	if reg >= isa.NumRegs {
		return 0
	}
	return r.md[reg]
}

// Store sets the metadata of register r. Stores to RegNone are ignored.
func (r *Registers) Store(reg isa.Reg, v byte) {
	if reg >= isa.NumRegs {
		return
	}
	r.md[reg] = v
}

// Snapshot returns a copy of the register metadata.
func (r *Registers) Snapshot() [isa.NumRegs]byte { return r.md }

// State bundles the two metadata spaces a monitor operates on.
type State struct {
	Mem  *Memory
	Regs *Registers
}

// NewState returns empty metadata state.
func NewState() *State {
	return &State{Mem: NewMemory(), Regs: &Registers{}}
}
