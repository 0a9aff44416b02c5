package queue

import (
	"fade/internal/obs"
	"fade/internal/stats"
)

// Unbounded is the capacity value that makes a queue effectively infinite.
// Section 3.2 studies an infinite event queue to characterize burstiness.
const Unbounded = int(^uint(0) >> 1)

// Bounded is a bounded FIFO ring buffer with occupancy instrumentation.
type Bounded[T any] struct {
	buf      []T
	head     int
	size     int
	capacity int
	// throttle is the fault-injected effective capacity; 0 means
	// unthrottled (the configured capacity applies).
	throttle int
	// dropHook, when non-nil, is consulted on every accepting push; a true
	// return discards the element (counted in drops) while still reporting
	// the push as accepted to the producer — the fault model for an event
	// silently lost in flight, which the invariant checker must detect.
	dropHook func() bool

	// occupancy is recorded as dwell time (RecordOccupancy): the current
	// size has held since sample index since.
	occupancy  *stats.Histogram
	samples    func() uint64
	since      uint64
	pushes     stats.Counter
	pops       stats.Counter
	fullStalls stats.Counter
	drops      stats.Counter
	maxSize    int
}

// NewBounded returns a queue holding at most capacity elements. Use
// Unbounded for an effectively infinite queue (storage grows on demand).
// It panics on a non-positive capacity; construction paths reachable from
// the public API validate capacities first (system.ValidateSpec) so the
// panic marks an internal bug, not a user error.
func NewBounded[T any](capacity int) *Bounded[T] {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	initial := capacity
	if capacity == Unbounded {
		initial = 64
	}
	return &Bounded[T]{
		buf:       make([]T, initial),
		capacity:  capacity,
		occupancy: stats.NewHistogram(),
	}
}

// Cap returns the configured capacity.
func (q *Bounded[T]) Cap() int { return q.capacity }

// EffectiveCap returns the capacity currently enforced on pushes: the
// configured capacity, or the throttled capacity while queue-pressure fault
// injection is active.
func (q *Bounded[T]) EffectiveCap() int {
	if q.throttle > 0 && q.throttle < q.capacity {
		return q.throttle
	}
	return q.capacity
}

// Throttle sets the fault-injected effective capacity (clamped to at least
// one entry); 0 clears the throttle. Shrinking below the current occupancy
// does not evict elements — it only blocks pushes until the queue drains.
func (q *Bounded[T]) Throttle(cap int) {
	if cap < 0 {
		cap = 0
	}
	q.throttle = cap
}

// SetDropHook installs (or, with nil, removes) the fault-injection drop
// hook. See the field comment for the contract.
func (q *Bounded[T]) SetDropHook(fn func() bool) { q.dropHook = fn }

// Drops returns the number of elements discarded by the drop hook.
func (q *Bounded[T]) Drops() uint64 { return q.drops.Value() }

// Len returns the current number of queued elements.
func (q *Bounded[T]) Len() int { return q.size }

// Full reports whether a Push would fail.
func (q *Bounded[T]) Full() bool { return q.size >= q.EffectiveCap() }

// Empty reports whether the queue holds no elements.
func (q *Bounded[T]) Empty() bool { return q.size == 0 }

// Push appends v and reports whether it was accepted. A rejected push is
// counted as a full-queue stall (producer backpressure).
func (q *Bounded[T]) Push(v T) bool {
	if q.Full() {
		q.fullStalls.Inc()
		return false
	}
	if q.dropHook != nil && q.dropHook() {
		q.drops.Inc()
		return true
	}
	if q.size == len(q.buf) {
		q.grow()
	}
	q.dwell()
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
	q.pushes.Inc()
	if q.size > q.maxSize {
		q.maxSize = q.size
	}
	return true
}

// Pop removes and returns the oldest element. ok is false when empty.
func (q *Bounded[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	q.dwell()
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	q.pops.Inc()
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *Bounded[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th element counted from the head (0 = oldest). It is used
// by associative searches such as the filter store queue lookup.
func (q *Bounded[T]) At(i int) T {
	if i < 0 || i >= q.size {
		panic("queue: index out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// RecordOccupancy records the per-cycle occupancy histogram of Fig. 3(a,b)
// as dwell time. samples reports how many per-cycle samples have been
// taken, which places the sample point in the cycle; whenever the size
// changes or the histogram is read, the queue adds its size once per
// sample it held for. Without it the histogram stays empty.
func (q *Bounded[T]) RecordOccupancy(samples func() uint64) { q.samples = samples }

// StopOccupancy counts the current size through sample end and stops
// recording.
func (q *Bounded[T]) StopOccupancy(end uint64) {
	if q.samples != nil {
		q.occupancy.AddN(q.size, end-q.since)
		q.since, q.samples = end, nil
	}
}

// dwell adds the current size once per sample it held for.
func (q *Bounded[T]) dwell() {
	if q.samples != nil {
		t := q.samples()
		q.occupancy.AddN(q.size, t-q.since)
		q.since = t
	}
}

// StallN records n rejected pushes in one step without attempting them —
// the bulk counterpart of n failed Push calls against a full queue, used by
// the fast-forward kernel when a producer is known to stay blocked for a
// span of cycles.
func (q *Bounded[T]) StallN(n uint64) {
	q.fullStalls.Add(n)
}

// Occupancy returns the per-cycle occupancy histogram, through the latest
// sample.
func (q *Bounded[T]) Occupancy() *stats.Histogram {
	q.dwell()
	return q.occupancy
}

// Pushes returns the number of accepted pushes.
func (q *Bounded[T]) Pushes() uint64 { return q.pushes.Value() }

// Pops returns the number of pops.
func (q *Bounded[T]) Pops() uint64 { return q.pops.Value() }

// MaxLen returns the high-water mark of the queue.
func (q *Bounded[T]) MaxLen() int { return q.maxSize }

// MetricsCollector returns an obs.Collector exposing the queue's counters
// and occupancy distribution under the given dotted prefix (e.g.
// "queue.meq"). See docs/METRICS.md for the emitted names.
func (q *Bounded[T]) MetricsCollector(prefix string) obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		s.Counter(prefix+".pushes", q.pushes.Value())
		s.Counter(prefix+".pops", q.pops.Value())
		s.Counter(prefix+".full_stalls", q.fullStalls.Value())
		if q.dropHook != nil {
			// Emitted only under fault injection so fault-free metric
			// dumps keep their historical shape (golden tests pin them).
			s.Counter(prefix+".drops", q.drops.Value())
		}
		s.Gauge(prefix+".occupancy", float64(q.size))
		s.Gauge(prefix+".max_occupancy", float64(q.maxSize))
		s.Histogram(prefix+".occupancy_dist", q.Occupancy())
	})
}

func (q *Bounded[T]) grow() {
	bigger := make([]T, len(q.buf)*2)
	for i := 0; i < q.size; i++ {
		bigger[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = bigger
	q.head = 0
}
