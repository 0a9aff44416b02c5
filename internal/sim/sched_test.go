package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"fade/internal/spans"
)

// endless returns a scheduler over one no-op component that never finishes.
func endless(maxCycles uint64) *Scheduler {
	c := NewClock()
	c.Register(ComponentFunc(func(uint64) {}))
	return &Scheduler{Clock: c, MaxCycles: maxCycles,
		Done: func() bool { return false }}
}

func TestSchedulerCycleCapStructuredError(t *testing.T) {
	out := endless(100).Run()
	if out.Completed {
		t.Fatal("capped run reported Completed")
	}
	if !errors.Is(out.Err, ErrCycleCapExceeded) {
		t.Fatalf("Err = %v, want ErrCycleCapExceeded", out.Err)
	}
	if out.Cycles != 100 {
		t.Fatalf("Cycles = %d, want 100", out.Cycles)
	}
}

func TestSchedulerPreCanceledContextStopsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := endless(1_000_000)
	s.Ctx = ctx
	out := s.Run()
	if out.Completed || !errors.Is(out.Err, ErrCanceled) {
		t.Fatalf("out = %+v, want ErrCanceled abort", out)
	}
	if out.Cycles != 0 {
		t.Fatalf("pre-canceled run executed %d cycles, want 0", out.Cycles)
	}
}

// TestSchedulerCancelWithinOneCheckpoint: a context canceled mid-run stops
// the scheduler within one checkpoint interval of the cancellation cycle.
func TestSchedulerCancelWithinOneCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewClock()
	const cancelAt = 100
	c.Register(ComponentFunc(func(cycle uint64) {
		if cycle == cancelAt {
			cancel()
		}
	}))
	s := &Scheduler{Clock: c, MaxCycles: 1_000_000, Ctx: ctx,
		Done: func() bool { return false }}
	out := s.Run()
	if !errors.Is(out.Err, ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", out.Err)
	}
	if out.Cycles < cancelAt || out.Cycles > cancelAt+DefaultCheckpointInterval {
		t.Fatalf("stopped at cycle %d; want within one %d-cycle checkpoint of %d", out.Cycles, DefaultCheckpointInterval, cancelAt)
	}
}

// TestSchedulerWallClockDeadline: a context past its deadline stops the
// run with ErrCanceled wrapping the deadline's cause.
func TestSchedulerWallClockDeadline(t *testing.T) {
	errBudget := errors.New("wall-clock limit exceeded")
	ctx, cancel := context.WithDeadlineCause(context.Background(), time.Now().Add(-time.Second), errBudget)
	defer cancel()
	s := endless(1 << 40)
	s.Ctx = ctx
	out := s.Run()
	if out.Completed || !errors.Is(out.Err, ErrCanceled) || !errors.Is(out.Err, errBudget) {
		t.Fatalf("out = %+v, want ErrCanceled wrapping the deadline's cause", out)
	}
	if want := "sim: run canceled: wall-clock limit exceeded"; out.Err.Error() != want {
		t.Fatalf("Err = %q, want %q", out.Err, want)
	}
}

func TestSchedulerCheckAbortsWithInvariantError(t *testing.T) {
	c := NewClock()
	c.Register(ComponentFunc(func(uint64) {}))
	s := &Scheduler{Clock: c, MaxCycles: 1000,
		Done: func() bool { return false },
		Check: func(cycle uint64) error {
			if cycle == 10 {
				return &InvariantError{Invariant: "meq-capacity", Cycle: cycle, Detail: "len 33 > cap 32"}
			}
			return nil
		}}
	out := s.Run()
	if out.Completed || !errors.Is(out.Err, ErrInvariantViolated) {
		t.Fatalf("out = %+v, want ErrInvariantViolated abort", out)
	}
	var ie *InvariantError
	if !errors.As(out.Err, &ie) || ie.Invariant != "meq-capacity" || ie.Cycle != 10 {
		t.Fatalf("Err = %v, want *InvariantError{meq-capacity, 10}", out.Err)
	}
	// Check runs post-tick: cycle 10's tick executed, so the clock reads 11.
	if out.Cycles != 11 {
		t.Fatalf("Cycles = %d, want 11", out.Cycles)
	}
}

// TestSchedulerContextDoesNotPerturbCompletedRuns: installing a live (never
// canceled) context must not change how many cycles a completing run takes —
// checkpoints only read.
func TestSchedulerContextDoesNotPerturbCompletedRuns(t *testing.T) {
	run := func(ctx context.Context) Outcome {
		c := NewClock()
		ticks := 0
		c.Register(ComponentFunc(func(uint64) { ticks++ }))
		s := &Scheduler{Clock: c, MaxCycles: 100_000, Ctx: ctx,
			Done: func() bool { return ticks >= 5000 }}
		return s.Run()
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain := run(nil)
	watched := run(live)
	if !plain.Completed || !watched.Completed || plain.Cycles != watched.Cycles {
		t.Fatalf("plain = %+v, watched = %+v; cycle counts must match", plain, watched)
	}
}

// TestSchedulerBackgroundContextPlacesNoCheckpoints: context.Background()
// can never be canceled, so the scheduler treats it as no context at all
// and places no checkpoints, while a cancelable context is polled every
// DefaultCheckpointInterval iterations.
func TestSchedulerBackgroundContextPlacesNoCheckpoints(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want int
	}{
		{"nil", nil, 0},
		{"background", context.Background(), 0},
		{"cancelable", live, 3},
	} {
		tr := spans.New("t", 64)
		s := endless(2 * DefaultCheckpointInterval)
		s.Ctx, s.Trace, s.TraceTrack = tc.ctx, tr, tr.NewTrack("sched")
		s.Run()
		got := 0
		for _, sp := range tr.Spans() {
			if sp.Name == spans.NameCheckpoint {
				got++
			}
		}
		if got != tc.want {
			t.Errorf("%s context: %d checkpoints, want %d", tc.name, got, tc.want)
		}
	}
}

func TestInvariantErrorMessageNamesInvariant(t *testing.T) {
	err := &InvariantError{Invariant: "ufq-capacity", Cycle: 42, Detail: "core 1: len 17 > cap 16"}
	for _, want := range []string{"ufq-capacity", "42", "core 1"} {
		if !containsStr(err.Error(), want) {
			t.Fatalf("error %q missing %q", err.Error(), want)
		}
	}
	if !errors.Is(err, ErrInvariantViolated) {
		t.Fatal("InvariantError does not unwrap to ErrInvariantViolated")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
