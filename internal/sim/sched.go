package sim

import (
	"context"
	"errors"
	"fmt"

	"fade/internal/obs"
	"fade/internal/spans"
)

// DefaultCheckpointInterval is the cancellation-checkpoint period: every
// this-many loop iterations the scheduler polls its context (a wall-clock
// budget reaches it as the context's deadline). Polling is cheap but
// keeping it off the every-iteration path preserves the hot loop; a
// canceled run is guaranteed to stop within one checkpoint interval.
//
// The interval counts loop iterations executed, not simulated cycles: a
// fast-forward jump advances the clock by an arbitrary number of cycles in
// one iteration, so a cycle-modulo checkpoint could be hopped over
// indefinitely, while an iteration count bounds real time regardless of
// step size.
const DefaultCheckpointInterval = 1024

// FFStats accounts the scheduler's event-driven fast-forward mode. The
// counters live outside the simulation's metric registry — fast-forward is
// observability of the simulator, not of the simulated hardware — and are
// surfaced by callers that enable the mode (system registers them under the
// sim.ff.* name space, see docs/METRICS.md).
type FFStats struct {
	// Pinned is the empty string while skip-ahead is armed, or the reason
	// the whole run fell back to cycle-exact execution: "check" (per-cycle
	// invariant hook armed) or "component" (a registered component does
	// not implement Sleeper — fault engines and probes deliberately do
	// not, so fault injection pins cycle-exact mode).
	Pinned string
	// Jumps is the number of skip-ahead jumps taken.
	Jumps uint64
	// SkippedCycles is the number of cycles covered by jumps (never
	// executed tick-by-tick).
	SkippedCycles uint64
	// WakeStops counts iterations where a component reported work at the
	// current or next cycle, forcing an exact step.
	WakeStops uint64
	// WarmupStops counts iterations pinned exact by the armed warm-up
	// predicate (skip-ahead resumes once the boundary is recorded).
	WarmupStops uint64
}

// Outcome summarizes a scheduled run.
type Outcome struct {
	// Cycles is the number of cycles executed before the termination
	// predicate held (or the run aborted).
	Cycles uint64
	// WarmBoundary is the first cycle at which the Warmed predicate held
	// (0 when it never did, or when no predicate was installed).
	WarmBoundary uint64
	// Completed reports that the run terminated through its Done predicate
	// rather than aborting (cycle cap, cancellation, invariant violation).
	Completed bool
	// Err is nil when Completed; otherwise it is the structured abort
	// reason: ErrCanceled (context canceled or past its deadline),
	// ErrCycleCapExceeded, or an *InvariantError wrapping
	// ErrInvariantViolated.
	Err error
}

// Scheduler owns a simulation's end-to-end loop: the cycle cap, the
// termination predicate, the warm-up boundary, cancellation checkpoints,
// and the timeline. Every simulated system in the repository — monitored
// runs, unmonitored baselines, queue studies, the detailed-core
// cross-validation — drives its components through one of these rather
// than a hand-rolled loop.
//
// Per-cycle order is fixed and documented (DESIGN.md "Tick order"):
//
//  1. checkpoint — every DefaultCheckpointInterval loop iterations the
//     context is polled; a run whose context is canceled or past its
//     deadline aborts here with ErrCanceled (iterations, not cycles:
//     fast-forward jumps advance many cycles per iteration, so
//     cycle-modulo polling could be hopped over);
//  2. Done — checked next, so a system that is already drained executes
//     zero cycles;
//  3. Warmed — the first cycle on which it reports true is recorded as the
//     warm-up boundary;
//  4. Timeline.MaybeSample — cycle-sampled registry snapshots;
//  5. Clock.Step — every registered component ticks in registration order;
//  6. Check — the invariant checker observes the post-tick state and may
//     abort the run with an *InvariantError.
//
// Cancellation and deadlines never perturb the simulated state: a run
// that completes produces byte-identical metrics whether or not a context
// was installed, because checkpoints only read.
type Scheduler struct {
	Clock *Clock
	// MaxCycles is the safety cap; a run that reaches it did not complete
	// and reports ErrCycleCapExceeded.
	MaxCycles uint64
	// Done is the termination predicate, evaluated at the top of each cycle.
	Done func() bool
	// Warmed optionally marks the end of the warm-up region; nil disables
	// boundary tracking.
	Warmed func() bool
	// Check, when non-nil, validates system invariants after every cycle's
	// components have ticked. A non-nil return aborts the run with that
	// error (conventionally an *InvariantError).
	Check func(cycle uint64) error
	// Ctx, when neither nil nor context.Background(), is polled at
	// checkpoints; once it is done the run aborts with ErrCanceled
	// (wrapping the context's cause). Its deadline, if any, bounds real
	// time, not simulated time (MaxCycles bounds the latter).
	Ctx context.Context
	// FastForward arms event-driven skip-ahead: each iteration the
	// scheduler asks every component (which must implement Sleeper) for
	// its quiet span, and when all are quiescent it jumps the clock over
	// the shortest span in one step, bulk-applying the skipped ticks. Done
	// (and Warmed, once it has held) must be functions of component state,
	// not of the raw cycle number: state is frozen across a quiescent
	// span, so a state-based predicate provably cannot flip inside one,
	// while a cycle-valued predicate would be evaluated only at wake
	// cycles. Every scheduler in this repository terminates on
	// drained-component state; bound a run by cycle count with MaxCycles,
	// which jumps clamp to exactly. The mode is pinned back to cycle-exact
	// execution for the whole run when any component is not a Sleeper or
	// when Check is armed; it is held per-iteration while the warm-up
	// predicate is armed and unmet, and jumps are clamped so MaxCycles and
	// timeline sample points are still visited exactly. A completed run is
	// byte-identical with the flag on or off.
	FastForward bool
	// FF accumulates fast-forward accounting for the run.
	FF FFStats
	// Timeline, when non-nil together with Registry, captures a registry
	// snapshot every Timeline.Every cycles.
	Timeline *obs.Timeline
	// Registry is the run's metrics registry sampled by Timeline.
	Registry *obs.Registry
	// Trace, when non-nil, receives cycle-domain spans on TraceTrack: the
	// whole-run sim.run span, one sim.ff.jump span per skip-ahead jump
	// (with its wake reason), sim.checkpoint instants at cancellation
	// polls, the sim.warm_boundary instant, and a sim.abort instant on
	// abnormal termination. Emission happens only at those episode
	// boundaries — never per cycle — and a nil Trace costs one nil check
	// inside each spans call, so the traced-off hot path is unchanged (the
	// same discipline as the sim.ff.* counters; see docs/TRACING.md).
	Trace *spans.Trace
	// TraceTrack is the scheduler's swimlane in Trace (a Trace.NewTrack
	// index allocated by the caller).
	TraceTrack int32
}

// Run executes cycles until Done holds, MaxCycles elapse, the context is
// canceled or past its deadline, or the invariant checker rejects a
// cycle. The abort reason, if any, is in Outcome.Err.
func (s *Scheduler) Run() Outcome {
	var out Outcome
	// Background can never be canceled, so a run under it has nothing to
	// poll and places no checkpoints.
	watch := s.Ctx != nil && s.Ctx != context.Background()
	sleepers := s.armFastForward()
	startCycle := s.Clock.Cycle()
	var iters uint64
	for cycles := s.Clock.Cycle(); ; cycles = s.Clock.Cycle() {
		// Checkpoints count loop iterations, not cycles: fast-forward
		// jumps (or any future non-unit stepping) would hop over a
		// cycle-modulo checkpoint, leaving a canceled run spinning.
		if watch && iters%DefaultCheckpointInterval == 0 {
			s.Trace.CycleInstant(s.TraceTrack, spans.NameCheckpoint, cycles, spans.None, spans.None)
			if s.Ctx.Err() != nil {
				out.Err = Canceled(s.Ctx)
				break
			}
		}
		iters++
		if cycles >= s.MaxCycles {
			out.Err = fmt.Errorf("%w (cap %d)", ErrCycleCapExceeded, s.MaxCycles)
			break
		}
		if s.Done() {
			out.Completed = true
			break
		}
		warmArmed := s.Warmed != nil && out.WarmBoundary == 0
		if warmArmed && s.Warmed() {
			out.WarmBoundary = cycles
			warmArmed = false
			s.Trace.CycleInstant(s.TraceTrack, spans.NameWarmBoundary, cycles, spans.None, spans.None)
		}
		s.Timeline.MaybeSample(cycles, s.Registry)
		if sleepers != nil {
			if warmArmed {
				// The warm-up predicate must be evaluated at every cycle
				// until it first holds; skip-ahead resumes afterwards.
				s.FF.WarmupStops++
			} else if s.tryJump(sleepers, cycles) {
				continue
			}
		}
		s.Clock.Step()
		if s.Check != nil {
			if err := s.Check(cycles); err != nil {
				out.Err = err
				break
			}
		}
	}
	out.Cycles = s.Clock.Cycle()
	if out.Err != nil {
		s.Trace.CycleInstant(s.TraceTrack, spans.NameAbort, out.Cycles,
			spans.Str("reason", abortReason(out.Err)), spans.None)
	}
	completed := uint64(0)
	if out.Completed {
		completed = 1
	}
	s.Trace.CycleSpan(s.TraceTrack, spans.NameRun, startCycle, out.Cycles,
		spans.Num("completed", completed), spans.None)
	return out
}

// abortReason maps an Outcome.Err onto the sim.abort span's reason label.
func abortReason(err error) string {
	switch {
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrCycleCapExceeded):
		return "cycle_cap"
	case errors.Is(err, ErrInvariantViolated):
		return "invariant"
	}
	return "error"
}

// armFastForward validates the fast-forward preconditions, records the
// fallback reason when they fail, and returns the clock's Sleeper view
// (nil when the run is pinned cycle-exact).
func (s *Scheduler) armFastForward() []Sleeper {
	if !s.FastForward {
		return nil
	}
	if s.Check != nil {
		// The invariant hook observes every post-tick state; there is no
		// bulk equivalent of "checked n times".
		s.FF.Pinned = "check"
		return nil
	}
	sleepers, ok := s.Clock.sleepers()
	if !ok {
		// Some component cannot promise quiescence (fault engines and
		// probes, hand-rolled test components): the whole run executes
		// cycle-exactly.
		s.FF.Pinned = "component"
		return nil
	}
	return sleepers
}

// tryJump asks every component for its quiet span and, when all are
// quiescent past the next cycle, advances the clock and every component
// over the shortest span. It reports whether a jump was taken; the caller
// then re-enters the loop at the wake cycle. The jump is clamped here, and
// only here, so the cycle cap and the next timeline sample point are still
// reached exactly — bulk accounting is linear, so the state at the clamp
// cycle is bit-identical to having ticked there.
func (s *Scheduler) tryJump(sleepers []Sleeper, now uint64) bool {
	n := uint64(QuietForever)
	waker := -1
	for i, sl := range sleepers {
		q := sl.QuietTicks()
		if q <= 1 {
			// Work this cycle or the next: an exact step costs the same.
			s.FF.WakeStops++
			return false
		}
		if q < n {
			n = q
			waker = i
		}
	}
	reason := "wake"
	if n > s.MaxCycles-now {
		n = s.MaxCycles - now
		reason = "cap"
	}
	if s.Timeline != nil && s.Timeline.Every > 0 {
		if next := s.Timeline.Every - now%s.Timeline.Every; n > next {
			n = next
			reason = "timeline"
		}
	}
	if n < 2 {
		s.FF.WakeStops++
		return false
	}
	s.Clock.fastForward(sleepers, n)
	s.FF.Jumps++
	s.FF.SkippedCycles += n
	if s.Trace != nil {
		s.Trace.CycleSpan(s.TraceTrack, spans.NameFFJump, now, now+n,
			spans.Str("reason", reason), spans.Num("sleeper", uint64(waker)))
	}
	return true
}
