package metadata

import (
	"math/rand"
	"sync"
	"testing"
)

// refMemory is the byte-per-byte reference model of Memory: every
// metadata byte is its own map entry, a page counts as touched once any
// byte in it has been written, and a zero write to an untouched page is a
// no-op that counts nothing.
type refMemory struct {
	bytes   map[uint32]byte
	touched map[uint32]bool
	writes  uint64
}

func newRefMemory() *refMemory {
	return &refMemory{bytes: map[uint32]byte{}, touched: map[uint32]bool{}}
}

func (r *refMemory) set(md uint32, v byte) {
	pn := md >> pageShift
	if !r.touched[pn] && v == 0 {
		return
	}
	r.touched[pn] = true
	if v == 0 {
		delete(r.bytes, md)
	} else {
		r.bytes[md] = v
	}
	r.writes++
}

func (r *refMemory) Store(appAddr uint32, v byte) { r.set(MDAddr(appAddr), v) }

func (r *refMemory) SetRange(base, size uint32, v byte) {
	if size == 0 {
		return
	}
	for md := MDAddr(base); md <= MDAddr(base+size-1); md++ {
		r.set(md, v)
	}
}

// propWindow is the application span the random operations land in:
// eight metadata pages, so ranges straddle, cover and revisit pages.
const propWindow = 8 * PageBytes * WordBytes

// propValues biases values towards a few repeats, so fills meet pages
// already holding the same value as well as different ones.
var propValues = []byte{0, 0, 1, 2, 0xFF}

// randomOp applies one random Store or SetRange to both memories.
func randomOp(rng *rand.Rand, m *Memory, ref *refMemory) {
	v := propValues[rng.Intn(len(propValues))]
	if rng.Intn(4) == 0 {
		v = byte(rng.Intn(256))
	}
	const appPage = PageBytes * WordBytes
	var base, size uint32
	switch rng.Intn(5) {
	case 0: // single word
		addr := uint32(rng.Intn(propWindow))
		m.Store(addr, v)
		ref.Store(addr, v)
		return
	case 1: // whole pages
		base = uint32(rng.Intn(8)) * appPage
		size = uint32(1+rng.Intn(3)) * appPage
	case 2: // inside one page
		base = uint32(rng.Intn(propWindow))
		size = uint32(rng.Intn(512))
	case 3: // straddling page boundaries, unaligned ends
		base = uint32(rng.Intn(propWindow))
		size = uint32(rng.Intn(3 * appPage))
	default: // a few bytes around a page boundary
		base = uint32(1+rng.Intn(7))*appPage - uint32(rng.Intn(64))
		size = uint32(rng.Intn(128))
	}
	m.SetRange(base, size, v)
	ref.SetRange(base, size, v)
}

func compareWithRef(t *testing.T, m *Memory, ref *refMemory) {
	t.Helper()
	if m.Writes() != ref.writes {
		t.Fatalf("Writes = %d, reference %d", m.Writes(), ref.writes)
	}
	if m.Pages() != len(ref.touched) {
		t.Fatalf("Pages = %d, reference %d", m.Pages(), len(ref.touched))
	}
	snap := m.Snapshot()
	if len(snap) != len(ref.bytes) {
		t.Fatalf("Snapshot has %d bytes, reference %d", len(snap), len(ref.bytes))
	}
	for md, v := range ref.bytes {
		if snap[md] != v {
			t.Fatalf("Snapshot[%#x] = %d, reference %d", md, snap[md], v)
		}
	}
	for app := uint32(0); app < propWindow+WordBytes*PageBytes; app += WordBytes {
		if got, want := m.Load(app), ref.bytes[MDAddr(app)]; got != want {
			t.Fatalf("Load(%#x) = %d, reference %d", app, got, want)
		}
	}
}

// checkUniformPagesIntact asserts no shared page was ever written.
func checkUniformPagesIntact(t *testing.T) {
	t.Helper()
	for v := range uniform {
		p := uniform[v].Load()
		if p == nil {
			continue
		}
		for i, b := range p {
			if b != byte(v) {
				t.Fatalf("shared page for %d modified at byte %d (%d)", v, i, b)
			}
		}
	}
}

func TestMemoryMatchesByteModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewMemory(), newRefMemory()
		for i := 0; i < 120; i++ {
			randomOp(rng, m, ref)
		}
		compareWithRef(t, m, ref)
	}
	checkUniformPagesIntact(t)
}

func TestMemoryConcurrentSharedPages(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for round := 0; round < 10; round++ {
				m, ref := NewMemory(), newRefMemory()
				// Both goroutines cover the same pages with the same values,
				// so they share uniform pages, then write through them.
				m.SetRange(0, propWindow, 1)
				ref.SetRange(0, propWindow, 1)
				for i := 0; i < 60; i++ {
					randomOp(rng, m, ref)
				}
				snap := m.Snapshot()
				if len(snap) != len(ref.bytes) || m.Writes() != ref.writes {
					errs[g] = "memory diverged from its reference model"
					return
				}
				for md, v := range ref.bytes {
					if snap[md] != v {
						errs[g] = "memory diverged from its reference model"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
	checkUniformPagesIntact(t)
}

func TestWholePageFillSharesPages(t *testing.T) {
	m := NewMemory()
	m.SetRange(0, 1<<20, 3) // 64 whole metadata pages
	if m.Pages() != 64 {
		t.Fatalf("Pages = %d, want 64", m.Pages())
	}
	for pn, page := range m.pages {
		if !shared(page) {
			t.Fatalf("page %d is private after a whole-page fill", pn)
		}
	}
	m.Store(0x40, 3) // same value: nothing to copy
	if !shared(m.pages[0]) {
		t.Fatal("same-value store copied a shared page")
	}
	m.Store(0x40, 4)
	if shared(m.pages[0]) || !shared(m.pages[1]) {
		t.Fatal("store did not copy exactly the page it wrote")
	}
	if m.Load(0x40) != 4 || m.Load(0x44) != 3 || uniformPage(3)[MDAddr(0x40)] != 3 {
		t.Fatal("copy-on-write lost or leaked a value")
	}
}
