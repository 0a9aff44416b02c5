package stats

import (
	"math"
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

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean not 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Add(v)
	}
	if m.Value() != 2.5 || m.N() != 4 {
		t.Fatalf("mean = %v n = %d", m.Value(), m.N())
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
	if f := h.CDFAt(5); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("CDFAt(5) = %v", f)
	}
	if f := h.CDFAt(0); f != 0 {
		t.Fatalf("CDFAt(0) = %v", f)
	}
	if f := h.CDFAt(100); f != 1 {
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
			return h.CDFAt(255) == 0
		}
		return h.CDFAt(255) == 1 && h.CDFAt(-1) == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	u := NewUtilization("a", "b", "c")
	u.RecordN(0, 2)
	u.RecordN(1, 1)
	u.RecordN(2, 1)
	if u.Total() != 4 {
		t.Fatalf("total = %d", u.Total())
	}
	if f := u.Fraction(0); f != 0.5 {
		t.Fatalf("fraction(0) = %v", f)
	}
	if names := u.Names(); len(names) != 3 || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	u := NewUtilization("x")
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
