package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"fade/internal/stats"
)

func TestValidName(t *testing.T) {
	valid := []string{"a", "fu.filtered.clean_check", "queue.meq.occupancy_dist.p99", "x0_9"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "Fu.events", "fu-events", "fu events", "fu.événement", "a/b"}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

// TestRegistryConcurrent hammers registration, counter increments, gauge
// stores, and snapshots from many goroutines; run under -race it proves
// the registry's concurrency contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 1000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shared := r.Counter("test.shared")
			own := r.Counter("test.own_" + string(rune('a'+g)))
			gauge := r.Gauge("test.level")
			for i := 0; i < perG; i++ {
				shared.Inc()
				own.Add(2)
				gauge.Set(float64(i))
			}
			r.Register(CollectorFunc(func(s Sink) {
				s.Counter("test.collected_"+string(rune('a'+g)), uint64(g))
			}))
		}(g)
	}
	// Snapshots race registration and registry-owned updates by design.
	for i := 0; i < 20; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Counter("test.shared"); got != goroutines*perG {
		t.Errorf("test.shared = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		name := "test.own_" + string(rune('a'+g))
		if got := snap.Counter(name); got != 2*perG {
			t.Errorf("%s = %d, want %d", name, got, 2*perG)
		}
		if got := snap.Counter("test.collected_" + string(rune('a'+g))); got != uint64(g) {
			t.Errorf("test.collected_%c = %d, want %d", 'a'+g, got, g)
		}
	}
	if v, ok := snap.Get("test.level"); !ok || v != perG-1 {
		t.Errorf("test.level = %v, %v; want %d, true", v, ok, perG-1)
	}
}

func TestSnapshotSortedAndHistogramExpansion(t *testing.T) {
	r := NewRegistry()
	h := stats.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Add(i)
	}
	r.Register(CollectorFunc(func(s Sink) {
		s.Histogram("test.dist", h)
		s.Counter("test.b", 2)
		s.Counter("test.a", 1)
	}))
	snap := r.Snapshot()
	for i := 1; i < len(snap.Values); i++ {
		if snap.Values[i-1].Name >= snap.Values[i].Name {
			t.Fatalf("snapshot not strictly name-sorted at %d: %q >= %q",
				i, snap.Values[i-1].Name, snap.Values[i].Name)
		}
	}
	for _, suffix := range HistogramSuffixes {
		if _, ok := snap.Get("test.dist" + suffix); !ok {
			t.Errorf("histogram series test.dist%s missing from snapshot", suffix)
		}
	}
	if got := snap.Counter("test.dist.count"); got != 100 {
		t.Errorf("test.dist.count = %d, want 100", got)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("test.events").Add(7)
	r.Gauge("test.ratio").Set(0.5)
	snap := r.Snapshot()
	var b bytes.Buffer
	err := WritePrometheus(&b, []LabeledSnapshot{
		{Labels: []Label{{Key: "cell", Value: `a"b\c`}}, Snap: snap},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE fade_test_events counter\n",
		"fade_test_events{cell=\"a\\\"b\\\\c\"} 7\n",
		"# TYPE fade_test_ratio gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteTimelineShape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.ticks")
	tl := &Timeline{Every: 10}
	for cycle := uint64(0); cycle < 25; cycle++ {
		c.Inc()
		tl.MaybeSample(cycle, r)
	}
	if len(tl.Points) != 3 {
		t.Fatalf("got %d points, want 3 (cycles 0, 10, 20)", len(tl.Points))
	}
	var b bytes.Buffer
	if err := WriteTimeline(&b, "unit/test", tl.Points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if want := `{"cell":"unit/test","cycle":10,"metrics":{"test.ticks":11}}`; lines[1] != want {
		t.Errorf("line 1 = %s, want %s", lines[1], want)
	}

	// Nil and disabled timelines are inert.
	var nilTL *Timeline
	nilTL.MaybeSample(0, r)
	(&Timeline{}).MaybeSample(0, r)
}

// TestValuePayload: a value is 32 bytes, one payload word that its kind
// reads as an exact count or as a float.
func TestValuePayload(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("Value is %d bytes, want 32", n)
	}
	c := CounterValue("c", 1<<60+3)
	if c.Count() != 1<<60+3 || c.Num() != float64(uint64(1<<60+3)) || c.Format() != "1152921504606846979" {
		t.Errorf("counter reads %d, %g, %s", c.Count(), c.Num(), c.Format())
	}
	for _, x := range []float64{0.5, -3, math.Copysign(0, -1), math.Inf(1), 1e300} {
		g := GaugeValue("g", x)
		if math.Float64bits(g.Num()) != math.Float64bits(x) || g.Count() != 0 {
			t.Errorf("gauge %g reads %g, count %d", x, g.Num(), g.Count())
		}
	}
}
