package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fade/internal/obs"
	"fade/internal/stats"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded RNG repeated values: %d unique of 100", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(11)
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
		hits := 0
		for i := 0; i < 10000; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / 10000
		if math.Abs(got-p) > 0.03 {
			t.Fatalf("Bool(%v) hit rate %v", p, got)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(5)
	for _, mean := range []float64{2, 8, 50} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			v := r.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d below 1", mean, v)
			}
			sum += v
		}
		got := float64(sum) / n
		if got < mean*0.9 || got > mean*1.1 {
			t.Fatalf("Geometric(%v) sample mean %v", mean, got)
		}
	}
}

func TestGeometricDegenerate(t *testing.T) {
	r := NewRNG(1)
	if v := r.Geometric(0.5); v != 1 {
		t.Fatalf("Geometric(0.5) = %d, want 1", v)
	}
	if v := r.Geometric(1); v != 1 {
		t.Fatalf("Geometric(1) = %d, want 1", v)
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(9)
	err := quick.Check(func(seed uint16) bool {
		lo, hi := 16.0, 4096.0
		v := r.Pareto(lo, hi, 1.3)
		return v >= lo && v <= hi
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParetoSkew(t *testing.T) {
	r := NewRNG(13)
	small := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Pareto(16, 4096, 1.3) < 128 {
			small++
		}
	}
	// A heavy-tailed size distribution is dominated by small values.
	if float64(small)/n < 0.5 {
		t.Fatalf("Pareto not skewed small: %d/%d below 128", small, n)
	}
}

func TestParetoDegenerate(t *testing.T) {
	r := NewRNG(1)
	if v := r.Pareto(64, 64, 1.5); v != 64 {
		t.Fatalf("Pareto(64,64) = %v", v)
	}
	if v := r.Pareto(64, 32, 1.5); v != 64 {
		t.Fatalf("Pareto with hi<lo should return lo, got %v", v)
	}
}

func TestClockRegistrationOrder(t *testing.T) {
	c := NewClock()
	var order []int
	c.Register(ComponentFunc(func(uint64) { order = append(order, 1) }))
	c.Register(ComponentFunc(func(uint64) { order = append(order, 2) }))
	c.Step()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("tick order %v", order)
	}
	if c.Cycle() != 1 {
		t.Fatalf("cycle = %d after one step", c.Cycle())
	}
}

func TestClockPassesCycleNumber(t *testing.T) {
	c := NewClock()
	var got []uint64
	c.Register(ComponentFunc(func(cycle uint64) { got = append(got, cycle) }))
	for i := 0; i < 3; i++ {
		c.Step()
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("cycle arg %v at step %d", v, i)
		}
	}
}

func TestSchedulerStopsOnDone(t *testing.T) {
	c := NewClock()
	ticks := 0
	c.Register(ComponentFunc(func(uint64) { ticks++ }))
	s := &Scheduler{Clock: c, MaxCycles: 1000,
		Done: func() bool { return ticks >= 10 }}
	out := s.Run()
	if !out.Completed || out.Cycles != 10 || ticks != 10 {
		t.Fatalf("out = %+v, ticks = %d", out, ticks)
	}
}

func TestSchedulerHitsCycleCap(t *testing.T) {
	c := NewClock()
	c.Register(ComponentFunc(func(uint64) {}))
	s := &Scheduler{Clock: c, MaxCycles: 100,
		Done: func() bool { return false }}
	out := s.Run()
	if out.Completed || out.Cycles != 100 {
		t.Fatalf("out = %+v", out)
	}
}

func TestSchedulerDoneCheckedBeforeTick(t *testing.T) {
	c := NewClock()
	ticks := 0
	c.Register(ComponentFunc(func(uint64) { ticks++ }))
	s := &Scheduler{Clock: c, MaxCycles: 100,
		Done: func() bool { return true }}
	out := s.Run()
	if !out.Completed || out.Cycles != 0 || ticks != 0 {
		t.Fatalf("drained system executed %d cycles, %d ticks", out.Cycles, ticks)
	}
}

func TestSchedulerWarmBoundary(t *testing.T) {
	c := NewClock()
	instrs := 0
	c.Register(ComponentFunc(func(uint64) { instrs += 2 }))
	s := &Scheduler{Clock: c, MaxCycles: 100,
		Done:   func() bool { return instrs >= 40 },
		Warmed: func() bool { return instrs >= 10 }}
	out := s.Run()
	// instrs reaches 10 after 5 ticks; the boundary is recorded at the top
	// of the following cycle.
	if out.WarmBoundary != 5 {
		t.Fatalf("warm boundary %d, want 5", out.WarmBoundary)
	}
	if !out.Completed || out.Cycles != 20 {
		t.Fatalf("out = %+v", out)
	}
}

// TestSchedulerSampleOrder: the scheduler's one sampling step, the
// timeline snapshot, sees cycle c before any of its ticks.
func TestSchedulerSampleOrder(t *testing.T) {
	c := NewClock()
	var trace []string
	c.Register(ComponentFunc(func(uint64) { trace = append(trace, "tick") }))
	reg := obs.NewRegistry()
	reg.Register(obs.CollectorFunc(func(obs.Sink) { trace = append(trace, "sample") }))
	s := &Scheduler{Clock: c, MaxCycles: 10,
		Done:     func() bool { return c.Cycle() == 2 },
		Timeline: &obs.Timeline{Every: 1}, Registry: reg}
	s.Run()
	want := []string{"sample", "tick", "sample", "tick"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

// fakeThread implements both AppThread and MonThread with scripted state;
// it is never quiet.
type fakeThread struct {
	done, stalled, busy bool
	shares              []float64
}

func (f *fakeThread) TickShare(s float64)       { f.shares = append(f.shares, s) }
func (f *fakeThread) Done() bool                { return f.done }
func (f *fakeThread) Stalled() bool             { return f.stalled }
func (f *fakeThread) Busy() bool                { return f.busy }
func (f *fakeThread) QuietTicks(float64) uint64 { return 0 }
func (f *fakeThread) SkipTicks(uint64, float64) {}

// TestSMTShares pins the exact share pairs the system loop historically
// produced for every thread-state combination.
func TestSMTShares(t *testing.T) {
	cases := []struct {
		name                         string
		appDone, appStalled, monBusy bool
		app, mon                     float64
	}{
		{"both-busy", false, false, true, 0.5, 0.5},
		{"app-done-mon-busy", true, false, true, 0, 1},
		{"app-stalled-mon-busy", false, true, true, 0, 1},
		{"app-stalled-mon-idle", false, true, false, 0, 1},
		{"app-done-mon-idle", true, false, false, 0, 1},
		{"app-running-mon-idle", false, false, false, 1, 0},
	}
	for _, tc := range cases {
		app, mon := SMTShares(tc.appDone, tc.appStalled, tc.monBusy)
		if app != tc.app || mon != tc.mon {
			t.Errorf("%s: SMTShares = (%v, %v), want (%v, %v)",
				tc.name, app, mon, tc.app, tc.mon)
		}
	}
}

func TestArbiterSMTTickOrderAndShares(t *testing.T) {
	app := &fakeThread{busy: false}
	mon := &fakeThread{busy: true}
	var order []string
	a := &Arbiter{
		App: observeApp{app, &order}, Mon: observeMon{mon, &order},
		FU:  fakeUnit{&order},
		SMT: true,
	}
	a.Tick(0)
	want := []string{"mon", "fu", "app"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
	if app.shares[0] != 0.5 || mon.shares[0] != 0.5 {
		t.Fatalf("shares app=%v mon=%v, want 0.5/0.5", app.shares, mon.shares)
	}
}

func TestArbiterNonSMTFullShares(t *testing.T) {
	app := &fakeThread{}
	mon := &fakeThread{busy: true}
	a := &Arbiter{App: app, Mon: mon}
	a.Tick(0)
	if app.shares[0] != 1 || mon.shares[0] != 1 {
		t.Fatalf("dedicated cores got shares app=%v mon=%v, want 1/1", app.shares, mon.shares)
	}
}

func TestArbiterUtilizationSkipsFinishedApp(t *testing.T) {
	app := &fakeThread{done: true}
	mon := &fakeThread{busy: true}
	u := stats.NewUtilization(UtilStates)
	a := &Arbiter{App: app, Mon: mon, SMT: true, Util: u}
	a.Tick(0)
	a.Tick(1)
	if u.Total() != 0 || a.Util != nil {
		t.Fatalf("a finished application thread counted %d cycles (Util released: %v)", u.Total(), a.Util == nil)
	}
	if app.shares[0] != 0 || mon.shares[0] != 1 {
		t.Fatalf("shares app=%v mon=%v, want 0/1", app.shares, mon.shares)
	}
}

// flipThread is a fakeThread whose own tick runs flip instead of
// recording its share.
type flipThread struct {
	*fakeThread
	flip func()
}

func (f flipThread) TickShare(float64) { f.flip() }

// TestArbiterUtilizationMatchesPerCycle: recording the utilization states
// on change must count what a per-cycle tally of the top-of-cycle states
// counts, up to the tick that finishes the application. The states change
// in the threads' own ticks and, between ticks, as a component ticking
// ahead of the arbiter would change them; skipped spans hold them frozen.
func TestArbiterUtilizationMatchesPerCycle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		app, mon := &fakeThread{}, &fakeThread{}
		moveApp := func() {
			if rng.Intn(5) == 0 {
				app.stalled = !app.stalled
			}
		}
		moveMon := func() {
			if rng.Intn(5) == 0 {
				mon.busy = !mon.busy
			}
		}
		u := stats.NewUtilization(UtilStates)
		a := &Arbiter{SMT: seed%2 == 0, Util: u,
			App: flipThread{app, func() { moveApp(); app.done = rng.Intn(300) == 0 }},
			Mon: flipThread{mon, moveMon}}
		var ref [3]uint64
		for cycle := uint64(0); !app.done; {
			if cycle > 0 && rng.Intn(5) == 0 {
				n := 2 + uint64(rng.Intn(20))
				ref[utilState(app.stalled, mon.busy)] += n
				a.SkipTicks(n)
				cycle += n
				continue
			}
			if rng.Intn(4) == 0 {
				moveApp()
				moveMon()
			}
			state := utilState(app.stalled, mon.busy)
			a.Tick(cycle)
			if !app.done {
				ref[state]++
			}
			cycle++
		}
		total := ref[0] + ref[1] + ref[2]
		if u.Total() != total {
			t.Fatalf("seed %d: %d cycles counted, per-cycle %d", seed, u.Total(), total)
		}
		for i, want := range ref {
			if u.Fraction(i) != float64(want)/float64(total) {
				t.Fatalf("seed %d: fraction(%d) = %v, per-cycle %d/%d", seed, i, u.Fraction(i), want, total)
			}
		}
	}
}

type observeApp struct {
	*fakeThread
	order *[]string
}

func (o observeApp) TickShare(s float64) {
	*o.order = append(*o.order, "app")
	o.fakeThread.TickShare(s)
}

type observeMon struct {
	*fakeThread
	order *[]string
}

func (o observeMon) TickShare(s float64) {
	*o.order = append(*o.order, "mon")
	o.fakeThread.TickShare(s)
}

// fakeUnit is a filtering unit that records its ticks and is never quiet.
type fakeUnit struct{ order *[]string }

func (u fakeUnit) Tick(uint64)        { *u.order = append(*u.order, "fu") }
func (u fakeUnit) QuietTicks() uint64 { return 0 }
func (u fakeUnit) SkipTicks(uint64)   {}
