package sim

import (
	"context"
	"errors"
	"fmt"
)

// The run-contract error taxonomy. Every abnormal termination of a
// scheduled simulation maps onto exactly one of these sentinels, so callers
// can dispatch with errors.Is regardless of how many layers of context have
// been wrapped around the original error.
var (
	// ErrCanceled reports that the run was stopped by its context (an
	// explicit cancel, or a deadline such as a spec's wall-clock budget)
	// before the termination predicate held. Results accompanying it are
	// partial but internally consistent as of the last completed cycle.
	ErrCanceled = errors.New("sim: run canceled")

	// ErrCycleCapExceeded reports that the run hit its MaxCycles safety cap
	// without the termination predicate holding — the simulated system did
	// not converge. Results accompanying it are truncated, never silently
	// reported as complete.
	ErrCycleCapExceeded = errors.New("sim: cycle cap exceeded")

	// ErrInvariantViolated reports that the per-cycle invariant checker
	// rejected the system state. It is always wrapped in an InvariantError
	// naming the violated invariant.
	ErrInvariantViolated = errors.New("sim: invariant violated")
)

// Canceled is the abort error of a run stopped by ctx: ErrCanceled
// wrapping the context's cause, so a deadline set with
// context.WithDeadlineCause names itself ("sim: run canceled: wall-clock
// limit exceeded") and errors.Is still matches context.Canceled or
// context.DeadlineExceeded when no cause was given.
func Canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// InvariantError is the concrete error returned when an invariant checker
// trips: it names the violated invariant (a stable, grep-able identifier
// such as "event-conservation"), the cycle at which it failed, and a
// human-readable detail string. It unwraps to ErrInvariantViolated.
type InvariantError struct {
	// Invariant is the stable identifier of the violated invariant.
	Invariant string
	// Cycle is the simulation cycle at which the violation was observed.
	Cycle uint64
	// Detail describes the observed inconsistency.
	Detail string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant %q violated at cycle %d: %s", e.Invariant, e.Cycle, e.Detail)
}

// Unwrap makes errors.Is(err, ErrInvariantViolated) hold.
func (e *InvariantError) Unwrap() error { return ErrInvariantViolated }
