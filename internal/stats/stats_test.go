package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestGMean(t *testing.T) {
	if g := GMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("gmean(2,8) = %v", g)
	}
	if g := GMean(nil); g != 0 {
		t.Fatalf("gmean(nil) = %v", g)
	}
	// Non-positive entries are ignored.
	if g := GMean([]float64{0, -1, 4}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("gmean with non-positives = %v", g)
	}
}

func TestGMeanLeqAMean(t *testing.T) {
	err := quick.Check(func(a, b, c uint8) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		return GMean(xs) <= AMean(xs)+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestAMeanMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if AMean(xs) != 2 {
		t.Fatalf("amean = %v", AMean(xs))
	}
	if Max(xs) != 3 {
		t.Fatalf("max = %v", Max(xs))
	}
	if AMean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty amean/max not 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 1, 2, 5, 5, 5} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Maximum() != 5 {
		t.Fatalf("max = %d", h.Maximum())
	}
	if math.Abs(h.Mean()-19.0/6) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 10; v++ {
		h.Add(v)
	}
	if f := cdfAt(h, 5); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("CDFAt(5) = %v", f)
	}
	if f := cdfAt(h, 0); f != 0 {
		t.Fatalf("CDFAt(0) = %v", f)
	}
	if f := cdfAt(h, 100); f != 1 {
		t.Fatalf("CDFAt(100) = %v", f)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if p := h.Percentile(0.5); p != 50 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(0.99); p != 99 {
		t.Fatalf("p99 = %d", p)
	}
	if p := h.Percentile(1.0); p != 100 {
		t.Fatalf("p100 = %d", p)
	}
}

func TestHistogramPercentileEmpty(t *testing.T) {
	if p := NewHistogram().Percentile(0.5); p != 0 {
		t.Fatalf("empty percentile = %d", p)
	}
}

func TestHistogramCDFAtPointsMonotone(t *testing.T) {
	h := NewHistogram()
	rngvals := []int{3, 3, 7, 1, 0, 12, 7, 7, 2}
	for _, v := range rngvals {
		h.Add(v)
	}
	pts := h.CDFAtPoints([]int{0, 1, 2, 4, 8, 16})
	prev := -1.0
	for _, p := range pts {
		if p.Frac < prev {
			t.Fatalf("CDF not monotone at %d: %v < %v", p.Value, p.Frac, prev)
		}
		prev = p.Frac
	}
	if last := pts[len(pts)-1]; last.Frac != 1 {
		t.Fatalf("CDF at 16 = %v, want 1", last.Frac)
	}
}

func TestHistogramCDFProperty(t *testing.T) {
	err := quick.Check(func(vals []uint8) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Add(int(v))
		}
		if len(vals) == 0 {
			return cdfAt(h, 255) == 0
		}
		return cdfAt(h, 255) == 1 && cdfAt(h, -1) == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestUtilization checks the on-change recording against a per-cycle
// reference: over random state sequences with long stretches of no change,
// entering each cycle's state (a repeat is a no-op) and closing before the
// final cycles must count exactly the cycles a per-cycle tally attributes
// to each state. Add merges trackers cycle for cycle.
func TestUtilization(t *testing.T) {
	sum := NewUtilization(3)
	var sumRef [3]uint64
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := NewUtilization(3)
		var ref [3]uint64
		start := uint64(rng.Intn(10))
		end := start + uint64(rng.Intn(500))
		closeAt := end - uint64(rng.Intn(int(end-start)+1))
		state := rng.Intn(3)
		for c := start; c < end; c++ {
			if rng.Intn(20) == 0 {
				state = rng.Intn(3)
			}
			if c < closeAt {
				u.Enter(state, c)
				ref[state]++
			}
		}
		u.Close(closeAt)
		total := ref[0] + ref[1] + ref[2]
		if u.Total() != total {
			t.Fatalf("seed %d: total %d, per-cycle %d", seed, u.Total(), total)
		}
		for i, want := range ref {
			if total > 0 && u.Fraction(i) != float64(want)/float64(total) {
				t.Fatalf("seed %d: fraction(%d) = %v, per-cycle %d/%d", seed, i, u.Fraction(i), want, total)
			}
			sumRef[i] += want
		}
		sum.Add(u)
	}
	for i, want := range sumRef {
		if got := sum.Fraction(i); got != float64(want)/float64(sum.Total()) {
			t.Fatalf("merged fraction(%d) = %v, want %d/%d", i, got, want, sum.Total())
		}
	}
}

func TestUtilizationEmpty(t *testing.T) {
	u := NewUtilization(1)
	if u.Fraction(0) != 0 {
		t.Fatal("empty utilization fraction not 0")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio(1,0) != 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatalf("Ratio(3,4) = %v", Ratio(3, 4))
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Add(2)
	if s := h.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// cdfAt is the cumulative fraction of h's samples at or below v.
func cdfAt(h *Histogram, v int) float64 { return h.CDFAtPoints([]int{v})[0].Frac }
