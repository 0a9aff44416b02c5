package queue

import (
	"testing"
	"testing/quick"
)

func TestPushPopFIFO(t *testing.T) {
	q := NewBounded[int](4)
	for i := 1; i <= 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 1; i <= 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestCapacityAndBackpressure(t *testing.T) {
	q := NewBounded[int](2)
	q.Push(1)
	q.Push(2)
	if q.Push(3) {
		t.Fatal("push beyond capacity accepted")
	}
	if q.fullStalls.Value() != 1 {
		t.Fatalf("full stalls = %d", q.fullStalls.Value())
	}
	if !q.Full() {
		t.Fatal("Full() false at capacity")
	}
	q.Pop()
	if !q.Push(3) {
		t.Fatal("push after pop rejected")
	}
}

func TestWrapAround(t *testing.T) {
	q := NewBounded[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*3 + i) {
				t.Fatal("push rejected")
			}
		}
		for i := 0; i < 3; i++ {
			v, _ := q.Pop()
			if v != round*3+i {
				t.Fatalf("round %d: pop %d want %d", round, v, round*3+i)
			}
		}
	}
}

func TestUnboundedGrowth(t *testing.T) {
	q := NewBounded[int](Unbounded)
	const n = 10_000
	for i := 0; i < n; i++ {
		if !q.Push(i) {
			t.Fatalf("unbounded push %d rejected", i)
		}
	}
	if q.Len() != n {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
}

func TestUnboundedGrowthPreservesOrderAcrossWrap(t *testing.T) {
	q := NewBounded[int](Unbounded)
	// Force a wrap before growth: fill, drain half, fill past initial cap.
	for i := 0; i < 60; i++ {
		q.Push(i)
	}
	for i := 0; i < 30; i++ {
		q.Pop()
	}
	for i := 60; i < 200; i++ {
		q.Push(i)
	}
	for want := 30; want < 200; want++ {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("pop = %d,%v want %d", v, ok, want)
		}
	}
}

// TestUnboundedGrowTriggersExactlyAtFull pins the grow() trigger condition:
// the ring reallocates only when size == len(buf), and a push landing exactly
// on that boundary — with the head mid-ring so the occupied region wraps —
// relocates every element in FIFO order.
func TestUnboundedGrowTriggersExactlyAtFull(t *testing.T) {
	q := NewBounded[int](Unbounded)
	// The initial ring holds 64; wrap the head to 32 first.
	for i := 0; i < 32; i++ {
		q.Push(-1)
	}
	for i := 0; i < 32; i++ {
		q.Pop()
	}
	// Fill the ring exactly: elements occupy [32..63] then wrap to [0..31].
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	if q.Len() != 64 {
		t.Fatalf("len = %d before growth boundary", q.Len())
	}
	if q.At(0) != 0 || q.At(63) != 63 {
		t.Fatalf("At across wrap = %d,%d", q.At(0), q.At(63))
	}
	// The 65th push is the first that must grow the ring.
	if !q.Push(64) {
		t.Fatal("push at growth boundary rejected")
	}
	if q.Len() != 65 {
		t.Fatalf("len after growth = %d", q.Len())
	}
	for want := 0; want <= 64; want++ {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("post-growth pop = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after draining grown ring")
	}
}

// TestOccupancyStatsAcrossGrowth checks that occupancy sampling and the
// push/pop counters survive a ring reallocation: growth is a storage detail
// and must not perturb the Fig. 3 occupancy statistics.
func TestOccupancyStatsAcrossGrowth(t *testing.T) {
	q := NewBounded[int](Unbounded)
	const n = 200 // forces two doublings of the 64-slot initial ring
	var taken uint64
	q.RecordOccupancy(func() uint64 { return taken })
	for i := 0; i < n; i++ {
		q.Push(i)
		taken++ // sample i sees push i
	}
	h := q.Occupancy()
	if h.Total() != n {
		t.Fatalf("samples = %d", h.Total())
	}
	if h.Maximum() != n {
		t.Fatalf("max occupancy = %d, want %d", h.Maximum(), n)
	}
	// Occupancy went 1..n exactly once each, so the mean is (n+1)/2.
	if want := float64(n+1) / 2; h.Mean() != want {
		t.Fatalf("mean occupancy = %v, want %v", h.Mean(), want)
	}
	if got := h.Percentile(0.5); got != n/2 {
		t.Fatalf("median occupancy = %d, want %d", got, n/2)
	}
	if q.Pushes() != n || q.MaxLen() != n {
		t.Fatalf("pushes=%d maxlen=%d", q.Pushes(), q.MaxLen())
	}
}

func TestPeekAndAt(t *testing.T) {
	q := NewBounded[string](4)
	q.Push("a")
	q.Push("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q,%v", v, ok)
	}
	if q.At(1) != "b" {
		t.Fatalf("At(1) = %q", q.At(1))
	}
	if q.Len() != 2 {
		t.Fatal("peek consumed elements")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	q := NewBounded[int](2)
	q.Push(1)
	q.At(1)
}

func TestOccupancySampling(t *testing.T) {
	q := NewBounded[int](8)
	var taken uint64
	q.RecordOccupancy(func() uint64 { return taken })
	taken++ // sample 0: empty
	q.Push(1)
	q.Push(2)
	taken++ // sample 1: 2
	h := q.Occupancy()
	if h.Total() != 2 {
		t.Fatalf("samples = %d", h.Total())
	}
	if h.Maximum() != 2 {
		t.Fatalf("max occupancy sample = %d", h.Maximum())
	}
}

func TestCounters(t *testing.T) {
	q := NewBounded[int](2)
	q.Push(1)
	q.Push(2)
	q.Pop()
	if q.Pushes() != 2 || q.Pops() != 1 {
		t.Fatalf("pushes=%d pops=%d", q.Pushes(), q.Pops())
	}
	if q.MaxLen() != 2 {
		t.Fatalf("maxlen = %d", q.MaxLen())
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewBounded[int](0)
}

// Property: any sequence of pushes/pops behaves like a reference slice queue.
func TestQueueModelEquivalence(t *testing.T) {
	err := quick.Check(func(ops []uint8, cap8 uint8) bool {
		capacity := int(cap8%16) + 1
		q := NewBounded[uint8](capacity)
		var ref []uint8
		for _, op := range ops {
			if op%3 == 0 && len(ref) > 0 {
				v, ok := q.Pop()
				if !ok || v != ref[0] {
					return false
				}
				ref = ref[1:]
			} else {
				pushed := q.Push(op)
				if pushed != (len(ref) < capacity) {
					return false
				}
				if pushed {
					ref = append(ref, op)
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}
