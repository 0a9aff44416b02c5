package queue

import (
	"testing"

	"fade/internal/obs"
)

func TestThrottleShrinksEffectiveCapacity(t *testing.T) {
	q := NewBounded[int](8)
	if q.EffectiveCap() != 8 {
		t.Fatalf("unthrottled effective cap = %d, want 8", q.EffectiveCap())
	}
	q.Throttle(3)
	if q.EffectiveCap() != 3 {
		t.Fatalf("throttled effective cap = %d, want 3", q.EffectiveCap())
	}
	for i := 0; i < 3; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected below effective cap", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push beyond throttled capacity accepted")
	}
	if !q.Full() {
		t.Fatal("Full() false at throttled capacity")
	}
	// Hard capacity is unchanged: lifting the throttle reopens the queue.
	if q.Cap() != 8 {
		t.Fatalf("Cap() = %d after throttling, want 8", q.Cap())
	}
	q.Throttle(0)
	if q.Full() || !q.Push(100) {
		t.Fatal("queue stayed full after the throttle lifted")
	}
}

func TestThrottleBelowOccupancyBlocksWithoutEvicting(t *testing.T) {
	q := NewBounded[int](8)
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	q.Throttle(2) // below current occupancy
	if q.Len() != 6 {
		t.Fatalf("throttle evicted entries: len = %d, want 6", q.Len())
	}
	if q.Push(7) {
		t.Fatal("push accepted while above throttled capacity")
	}
	if v, ok := q.Pop(); !ok || v != 0 {
		t.Fatalf("pop = %d,%v; draining must stay possible under throttle", v, ok)
	}
}

func TestThrottleAboveCapacityIsInert(t *testing.T) {
	q := NewBounded[int](4)
	q.Throttle(100)
	if q.EffectiveCap() != 4 {
		t.Fatalf("throttle above capacity changed effective cap to %d", q.EffectiveCap())
	}
	q.Throttle(-5) // negative clamps to "no throttle"
	if q.EffectiveCap() != 4 {
		t.Fatalf("negative throttle changed effective cap to %d", q.EffectiveCap())
	}
}

func TestDropHookCountsAndDiscards(t *testing.T) {
	q := NewBounded[int](8)
	drop := false
	q.SetDropHook(func() bool { return drop })
	q.Push(1)
	drop = true
	// The producer sees a successful push — a silent loss, by design: the
	// probe tests whether the system *detects* it, not whether it is absorbed.
	if !q.Push(2) {
		t.Fatal("dropped push did not report success to the producer")
	}
	drop = false
	q.Push(3)
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2 (dropped element stored)", q.Len())
	}
	if q.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", q.Drops())
	}
	if v, _ := q.Pop(); v != 1 {
		t.Fatalf("head = %d, want 1", v)
	}
	if v, _ := q.Pop(); v != 3 {
		t.Fatalf("second = %d, want 3 (2 was dropped)", v)
	}
}

func TestDropHookNotConsultedWhenFull(t *testing.T) {
	q := NewBounded[int](1)
	calls := 0
	q.SetDropHook(func() bool { calls++; return true })
	q.Push(1) // consults the hook (returns true: dropped)
	q.Push(2) // consults the hook again
	if calls != 2 {
		t.Fatalf("hook calls = %d, want 2", calls)
	}
	q.SetDropHook(func() bool { calls++; return false })
	q.Push(3) // stored; queue now full
	if q.Push(4) {
		t.Fatal("push into full queue accepted")
	}
	// The full check precedes the hook: a rejected push is backpressure, not
	// a drop, so the hook is not consulted for it.
	if calls != 3 {
		t.Fatalf("hook calls = %d, want 3 (full-queue rejection bypasses the hook)", calls)
	}
}

// TestDropsMetricConditional: the .drops counter appears in the metrics
// snapshot only when a drop hook is installed, keeping fault-free dumps
// byte-identical to the pre-fault-injection goldens.
func TestDropsMetricConditional(t *testing.T) {
	plain := NewBounded[int](4)
	s := snapshotOf(t, plain, "q")
	if _, ok := s["q.drops"]; ok {
		t.Fatal("fault-free queue exported q.drops")
	}
	hooked := NewBounded[int](4)
	hooked.SetDropHook(func() bool { return false })
	s = snapshotOf(t, hooked, "q")
	if _, ok := s["q.drops"]; !ok {
		t.Fatal("hooked queue did not export q.drops")
	}
}

func snapshotOf(t *testing.T, q *Bounded[int], prefix string) map[string]float64 {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Register(q.MetricsCollector(prefix))
	got := map[string]float64{}
	for _, v := range reg.Snapshot().Values {
		got[v.Name] = v.Num()
	}
	return got
}
