package sim

import (
	"context"
	"errors"
	"testing"

	"fade/internal/obs"
	"fade/internal/queue"
)

// pulse is a synthetic Sleeper that does real work on every cycle divisible
// by its period and is quiescent in between: interior ticks only advance the
// linearly-accountable idle counter, exactly as the contract requires. It is
// registered at cycle 0, so ticks is the current cycle.
type pulse struct {
	period uint64
	work   uint64
	idle   uint64
	ticks  uint64
}

func (p *pulse) Tick(cycle uint64) {
	p.ticks++
	if cycle%p.period == 0 {
		p.work++
	} else {
		p.idle++
	}
}

func (p *pulse) QuietTicks() uint64 {
	if p.ticks%p.period == 0 {
		return 0
	}
	return p.period - p.ticks%p.period
}

func (p *pulse) SkipTicks(n uint64) {
	p.ticks += n
	p.idle += n
}

// runPulses drives a set of pulse periods until the first pulse has done
// work targetWork times — a state-based termination predicate, as the
// FastForward contract requires — and returns the components plus the
// scheduler (for FF accounting).
func runPulses(t *testing.T, periods []uint64, targetWork uint64, ff bool, mutate func(*Scheduler)) ([]*pulse, *Scheduler) {
	t.Helper()
	clock := NewClock()
	pulses := make([]*pulse, len(periods))
	for i, per := range periods {
		pulses[i] = &pulse{period: per}
		clock.Register(pulses[i])
	}
	s := &Scheduler{Clock: clock, MaxCycles: targetWork * periods[0] * 10, FastForward: ff,
		Done: func() bool { return pulses[0].work >= targetWork }}
	if mutate != nil {
		mutate(s)
	}
	out := s.Run()
	if !out.Completed {
		t.Fatalf("run (ff=%v) did not complete: %v", ff, out.Err)
	}
	// The first pulse works at cycle 0 and every period thereafter, and Done
	// is seen one cycle after the target-th work tick.
	if want := (targetWork-1)*periods[0] + 1; out.Cycles != want {
		t.Fatalf("run (ff=%v) stopped at %d, want %d", ff, out.Cycles, want)
	}
	return pulses, s
}

// TestFastForwardMatchesExact: the same component set must end a run in a
// bit-identical state with skip-ahead on or off, and the FF run must
// actually jump.
func TestFastForwardMatchesExact(t *testing.T) {
	periods := []uint64{7, 11, 13}
	exact, _ := runPulses(t, periods, 1_430, false, nil)
	fast, s := runPulses(t, periods, 1_430, true, nil)
	for i := range exact {
		if *exact[i] != *fast[i] {
			t.Fatalf("pulse %d diverged: exact %+v, ff %+v", i, *exact[i], *fast[i])
		}
	}
	if s.FF.Jumps == 0 || s.FF.SkippedCycles == 0 {
		t.Fatalf("fast-forward run took no jumps: %+v", s.FF)
	}
	if s.FF.Pinned != "" {
		t.Fatalf("fast-forward unexpectedly pinned: %q", s.FF.Pinned)
	}
}

// earlyWaker wraps a pulse and deliberately under-reports its quiet span by
// a pseudo-random amount (sometimes claiming no quiescence at all). The
// Sleeper contract makes too-early wakes legal: they cost jumps, never
// correctness.
type earlyWaker struct {
	*pulse
	rng *RNG
}

func (e *earlyWaker) QuietTicks() uint64 {
	q := e.pulse.QuietTicks()
	if q == 0 {
		return 0
	}
	return e.rng.Uint64() % (q + 1)
}

// TestFastForwardPropertyEarlyWakesHarmless: random too-short QuietTicks
// hints must never change terminal component state, across many seeds.
func TestFastForwardPropertyEarlyWakesHarmless(t *testing.T) {
	const targetWork = 1_000
	periods := []uint64{5, 17, 29}
	exact, _ := runPulses(t, periods, targetWork, false, nil)
	for seed := uint64(0); seed < 25; seed++ {
		clock := NewClock()
		rng := NewRNG(seed)
		pulses := make([]*pulse, len(periods))
		for i, per := range periods {
			pulses[i] = &pulse{period: per}
			clock.Register(&earlyWaker{pulse: pulses[i], rng: rng})
		}
		s := &Scheduler{Clock: clock, MaxCycles: targetWork * periods[0] * 10, FastForward: true,
			Done: func() bool { return pulses[0].work >= targetWork }}
		if out := s.Run(); !out.Completed || out.Cycles != (targetWork-1)*periods[0]+1 {
			t.Fatalf("seed %d: out = %+v", seed, out)
		}
		for i := range pulses {
			if *pulses[i] != *exact[i] {
				t.Fatalf("seed %d pulse %d diverged: exact %+v, hinted %+v",
					seed, i, *exact[i], *pulses[i])
			}
		}
	}
}

// TestFastForwardClampsAtCycleCap: an indefinitely quiescent system must
// jump straight to the cap and abort there, not beyond it.
func TestFastForwardClampsAtCycleCap(t *testing.T) {
	clock := NewClock()
	p := &pulse{period: 1 << 62} // wakes once at cycle 0, then sleeps "forever"
	clock.Register(p)
	s := &Scheduler{Clock: clock, MaxCycles: 100_000, FastForward: true,
		Done: func() bool { return false }}
	out := s.Run()
	if !errors.Is(out.Err, ErrCycleCapExceeded) {
		t.Fatalf("Err = %v, want ErrCycleCapExceeded", out.Err)
	}
	if out.Cycles != 100_000 {
		t.Fatalf("Cycles = %d, want exactly the 100000 cap", out.Cycles)
	}
	if p.ticks != 100_000 {
		t.Fatalf("component accounted %d ticks, want 100000", p.ticks)
	}
	if s.FF.Jumps == 0 {
		t.Fatal("quiescent run to the cap took no jumps")
	}
}

// TestFastForwardVisitsTimelineSamples: jumps must clamp at timeline sample
// points so a sampled run records the same number of snapshots either way.
func TestFastForwardVisitsTimelineSamples(t *testing.T) {
	run := func(ff bool) ([]*pulse, *Scheduler, int) {
		reg := obs.NewRegistry()
		var tl obs.Timeline
		tl.Every = 100
		pulses, s := runPulses(t, []uint64{997}, 3, ff, func(s *Scheduler) {
			s.Timeline = &tl
			s.Registry = reg
		})
		return pulses, s, len(tl.Points)
	}
	exact, _, nExact := run(false)
	fast, s, nFast := run(true)
	if nExact != nFast {
		t.Fatalf("timeline points: exact %d, ff %d", nExact, nFast)
	}
	if *exact[0] != *fast[0] {
		t.Fatalf("state diverged under timeline sampling: %+v vs %+v", *exact[0], *fast[0])
	}
	if s.FF.Jumps == 0 {
		t.Fatal("timeline-sampled run took no jumps")
	}
}

// TestFastForwardHoldsForWarmup: the warm-up predicate must be evaluated
// cycle-exactly until it first holds, and the recorded boundary must match
// the exact run's.
func TestFastForwardHoldsForWarmup(t *testing.T) {
	run := func(ff bool) (Outcome, *pulse) {
		clock := NewClock()
		p := &pulse{period: 500}
		clock.Register(p)
		s := &Scheduler{Clock: clock, MaxCycles: 100_000, FastForward: ff,
			Done:   func() bool { return p.work >= 20 },
			Warmed: func() bool { return p.work >= 3 }}
		return s.Run(), p
	}
	exact, pe := run(false)
	fast, pf := run(true)
	if exact.WarmBoundary == 0 || exact.WarmBoundary != fast.WarmBoundary {
		t.Fatalf("warm boundary: exact %d, ff %d", exact.WarmBoundary, fast.WarmBoundary)
	}
	if *pe != *pf {
		t.Fatalf("state diverged across warm-up: %+v vs %+v", *pe, *pf)
	}
}

// TestFastForwardPinnedReasons: each precondition failure must fall back to
// cycle-exact execution and record why.
func TestFastForwardPinnedReasons(t *testing.T) {
	base := func() *Scheduler {
		clock := NewClock()
		p := &pulse{period: 64}
		clock.Register(p)
		return &Scheduler{Clock: clock, MaxCycles: 10_000, FastForward: true,
			Done: func() bool { return p.work >= 16 }}
	}
	t.Run("check", func(t *testing.T) {
		s := base()
		s.Check = func(uint64) error { return nil }
		s.Run()
		if s.FF.Pinned != "check" || s.FF.Jumps != 0 {
			t.Fatalf("FF = %+v, want pinned \"check\" with no jumps", s.FF)
		}
	})
	t.Run("non-sleeper-component", func(t *testing.T) {
		s := base()
		s.Clock.Register(ComponentFunc(func(uint64) {}))
		s.Run()
		if s.FF.Pinned != "component" || s.FF.Jumps != 0 {
			t.Fatalf("FF = %+v, want pinned \"component\" with no jumps", s.FF)
		}
	})
	t.Run("sample-jumps", func(t *testing.T) {
		s := base()
		// A queue sampled at the top of each cycle, recorded as dwell
		// time, that the pulse's work ticks push into.
		q := queue.NewBounded[int](queue.Unbounded)
		p := s.Clock.components[0].(*pulse)
		s.Clock.components[0] = pushPulse{p, q}
		q.RecordOccupancy(func() uint64 { return s.Clock.Cycle() + 1 })
		out := s.Run()
		q.StopOccupancy(out.Cycles)
		if s.FF.Pinned != "" || s.FF.Jumps == 0 {
			t.Fatalf("FF = %+v, want armed skip-ahead", s.FF)
		}
		// One sample per simulated cycle, executed or skipped: the run
		// stops one cycle after the 16th work tick (cycle 15*64). Cycle 0
		// sees an empty queue and each work tick's push holds for the 64
		// samples after it.
		h := q.Occupancy()
		if h.Total() != 15*64+1 || h.Maximum() != 15 || h.Mean() != 64*120.0/(15*64+1) {
			t.Fatalf("occupancy %v, want %d samples, max 15", h, 15*64+1)
		}
	})
}

// pushPulse is a pulse whose work ticks push into a queue.
type pushPulse struct {
	*pulse
	q *queue.Bounded[int]
}

func (p pushPulse) Tick(cycle uint64) {
	if cycle%p.period == 0 {
		p.q.Push(int(cycle))
	}
	p.pulse.Tick(cycle)
}

// TestFastForwardPreCanceledContext: cancellation checkpoints run on loop
// iterations, so even a run that would jump to its cap in one step aborts
// before executing any cycles when the context is already done.
func TestFastForwardPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	clock := NewClock()
	clock.Register(&pulse{period: 1 << 62})
	s := &Scheduler{Clock: clock, MaxCycles: 1 << 40, FastForward: true, Ctx: ctx,
		Done: func() bool { return false }}
	out := s.Run()
	if !errors.Is(out.Err, ErrCanceled) || out.Cycles != 0 {
		t.Fatalf("out = %+v, want ErrCanceled at cycle 0", out)
	}
}
