package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Counter is a simple named event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// GMean returns the geometric mean of xs, ignoring non-positive entries.
// The paper reports per-benchmark slowdowns summarized by gmean.
func GMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// AMean returns the arithmetic mean of xs (0 when empty).
func AMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs (0 when empty).
func Max(xs []float64) float64 {
	max := 0.0
	for i, x := range xs {
		if i == 0 || x > max {
			max = x
		}
	}
	return max
}

// Histogram counts integer-valued samples (e.g. queue occupancies, burst
// sizes, inter-event distances). Buckets are exact values.
//
// A histogram has two forms. While it records, small non-negative values
// — the overwhelming majority: queue occupancies and event distances
// cluster near zero — live in a dense slice, so the per-cycle Add on the
// simulator's hot path is an array increment with no map hashing; rare
// large or negative values fall back to a sparse map. Once a run is over,
// Compact turns it into its finished form: the occupied buckets alone,
// ascending, with neither the dense slice nor the map. Decoding builds the
// finished form directly. Both forms answer every reader alike, and a
// finished histogram recorded into again returns to the recording form.
type Histogram struct {
	dense  []uint64       // counts for values in [0, len(dense))
	sparse map[int]uint64 // lazily allocated overflow buckets
	total  uint64
	sum    float64
	max    int
	// packed holds the finished form's buckets; nil while dense and
	// sparse hold them.
	packed []bucket
}

// bucket is one occupied value and its count, in the finished form and on
// the wire.
type bucket struct {
	V int    `json:"v"`
	N uint64 `json:"n"`
}

// maxDense bounds the dense bucket array; values at or beyond it (or
// negative) go to the sparse map. The array starts at 64 entries and
// doubles until it covers the largest value seen, so it holds up to twice
// that many entries; 64K entries cover the deepest occupancy the
// experiments probe (32K) with one 512 KB array worst-case.
const maxDense = 1 << 16

// NewHistogram returns an empty histogram. No storage is allocated until
// the first sample.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// Add records one sample of value v.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n samples of value v in one step. It is exactly equivalent
// to calling Add(v) n times — counts are integral and the running sum only
// ever accumulates integer-valued terms, so the bulk update is bit-exact —
// which lets a queue record its occupancy as dwell time (internal/queue).
func (h *Histogram) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v >= 0 && v < maxDense {
		if v >= len(h.dense) {
			h.growDense(v)
		}
		h.dense[v] += n
	} else {
		if h.packed != nil {
			h.unpack()
		}
		if h.sparse == nil {
			h.sparse = make(map[int]uint64)
		}
		h.sparse[v] += n
	}
	h.total += n
	h.sum += float64(v) * float64(n)
	if v > h.max {
		h.max = v
	}
}

// growDense extends the dense array to cover v (amortized: capacity
// doubles, starting at 64), first returning a finished histogram to its
// recording form.
func (h *Histogram) growDense(v int) {
	if h.packed != nil {
		h.unpack()
		if v < len(h.dense) {
			return
		}
	}
	n := len(h.dense) * 2
	if n < 64 {
		n = 64
	}
	for n <= v {
		n *= 2
	}
	if n > maxDense {
		n = maxDense
	}
	bigger := make([]uint64, n)
	copy(bigger, h.dense)
	h.dense = bigger
}

// unpack records the finished form's buckets back into the dense array
// and the sparse map, keeping the summary scalars as they were.
func (h *Histogram) unpack() {
	bs, total, sum, max := h.packed, h.total, h.sum, h.max
	h.packed = nil
	for _, b := range bs {
		h.AddN(b.V, b.N)
	}
	h.total, h.sum, h.max = total, sum, max
}

// Compact turns a histogram that will record no more into its finished
// form, which keeps 16 bytes per occupied bucket. It is idempotent.
func (h *Histogram) Compact() {
	h.packed = h.buckets()
	h.dense, h.sparse = nil, nil
}

// buckets returns every occupied bucket, ascending by value: the finished
// form itself, or the occupied dense entries merged with the sparse ones
// in a slice sized to fit.
func (h *Histogram) buckets() []bucket {
	if h.dense == nil && h.sparse == nil {
		return h.packed
	}
	n := len(h.sparse)
	for _, c := range h.dense {
		if c > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	bs := make([]bucket, 0, n)
	for v, c := range h.dense {
		if c > 0 {
			bs = append(bs, bucket{V: v, N: c})
		}
	}
	if len(h.sparse) > 0 {
		for v, c := range h.sparse {
			bs = append(bs, bucket{V: v, N: c})
		}
		slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.V, b.V) })
	}
	return bs
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Maximum returns the largest sample seen (0 when empty).
func (h *Histogram) Maximum() int { return h.max }

// Mean returns the mean sample value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Percentile returns the smallest value v whose cumulative fraction of
// samples is at least p, for p in (0, 1].
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	bs := h.buckets()
	target := uint64(math.Ceil(p * float64(h.total)))
	var cum uint64
	for _, b := range bs {
		cum += b.N
		if cum >= target {
			return b.V
		}
	}
	return bs[len(bs)-1].V
}

// CDF returns (value, cumulative fraction) pairs at the given probe points.
type CDFPoint struct {
	Value int
	Frac  float64
}

// CDFAtPoints evaluates the CDF at each probe value, in order.
func (h *Histogram) CDFAtPoints(points []int) []CDFPoint {
	out := make([]CDFPoint, 0, len(points))
	bs := h.buckets()
	for _, p := range points {
		var cum uint64
		for _, b := range bs {
			if b.V > p {
				break
			}
			cum += b.N
		}
		frac := 0.0
		if h.total > 0 {
			frac = float64(cum) / float64(h.total)
		}
		out = append(out, CDFPoint{Value: p, Frac: frac})
	}
	return out
}

// String renders the histogram compactly for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist{n=%d mean=%.2f max=%d}", h.total, h.Mean(), h.max)
	return b.String()
}

// Utilization splits simulated cycles across a fixed set of mutually
// exclusive states (e.g. app-idle / monitor-idle / both-busy). It records
// on change, so a cycle that stays in its state costs one comparison.
type Utilization struct {
	counts []uint64
	total  uint64
	state  int    // the open interval's state; -1 when none is open
	since  uint64 // the cycle the open interval began
}

// NewUtilization creates a tracker over the given number of states.
func NewUtilization(states int) *Utilization {
	return &Utilization{counts: make([]uint64, states), state: -1}
}

// Enter records that cycle, and every cycle up to the next Enter or Close,
// is in state i.
func (u *Utilization) Enter(i int, cycle uint64) {
	if i != u.state {
		u.Close(cycle)
		u.state, u.since = i, cycle
	}
}

// Close counts the open interval through cycle-1 and leaves none open.
func (u *Utilization) Close(cycle uint64) {
	if u.state >= 0 {
		u.counts[u.state] += cycle - u.since
		u.total += cycle - u.since
		u.state = -1
	}
}

// Add accumulates o's counted cycles into u.
func (u *Utilization) Add(o *Utilization) {
	for i, n := range o.counts {
		u.counts[i] += n
	}
	u.total += o.total
}

// Fraction returns the share of cycles spent in state i (0 when no cycles).
func (u *Utilization) Fraction(i int) float64 {
	if u.total == 0 {
		return 0
	}
	return float64(u.counts[i]) / float64(u.total)
}

// Total returns the number of recorded cycles.
func (u *Utilization) Total() uint64 { return u.total }

// Ratio is a convenience for safe division: a/b, or 0 when b == 0.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
