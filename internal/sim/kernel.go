package sim

// Component is a hardware block advanced by the simulation clock. Tick is
// called exactly once per simulated cycle, in the registration order of the
// components. Registration order therefore defines intra-cycle evaluation
// order; systems register consumers before producers so that a value written
// into a queue in cycle N is visible to its consumer in cycle N+1, matching
// a clocked hardware boundary.
type Component interface {
	// Tick advances the component by one cycle.
	Tick(cycle uint64)
}

// QuietForever is the QuietTicks return value of a component, thread or
// unit with no self-scheduled work: it changes state only in response to
// another component's exact tick, so it can sleep until one occurs.
// Because the scheduler only skips ahead when every component is
// quiescent, no such tick can happen inside a skipped span.
const QuietForever = ^uint64(0)

// Sleeper is the Component extension consulted by the scheduler's
// event-driven fast-forward mode. A component implements it to report
// quiescence: a span of upcoming ticks that are bulk-replayable — they
// mutate nothing except linearly-accountable counters (idle/stall cycles,
// countdowns) and can therefore be applied in one step with bit-exact
// results. The contract is relative to the component's own state; no
// implementation needs the cycle number.
//
// The contract, assuming every other component is also quiescent over the
// same span (the scheduler guarantees this before jumping):
//
//   - QuietTicks reports how many consecutive upcoming ticks are
//     bulk-replayable: 0 means "tick me this cycle", QuietForever means
//     the component changes state only when some other component acts.
//   - SkipTicks(n) applies the bulk effect of the next n ticks. The
//     scheduler only calls it with n <= QuietTicks() (clamped by its own
//     duties: cycle cap, timeline samples). Accumulators that are not
//     integer-valued (credit pools, remaining-work counters) must be
//     replayed addition-by-addition so the result is bit-exact.
//
// Underestimating the quiescent span costs performance but never
// correctness: the scheduler simply ticks exactly through cycles the
// component could have slept. Overestimating it is a contract violation —
// the differential and property tests in this repository exist to catch
// it.
type Sleeper interface {
	Component
	// QuietTicks reports how many upcoming ticks are bulk-replayable.
	QuietTicks() uint64
	// SkipTicks bulk-applies the next n ticks, n <= QuietTicks().
	SkipTicks(n uint64)
}

// ComponentFunc adapts a plain function to the Component interface.
type ComponentFunc func(cycle uint64)

// Tick implements Component.
func (f ComponentFunc) Tick(cycle uint64) { f(cycle) }

// Clock drives a set of components cycle by cycle and tracks simulated time.
// Loop control — termination predicates, cycle caps, warm-up boundaries —
// lives in Scheduler; the clock only owns the tick order.
type Clock struct {
	components []Component
	cycle      uint64
}

// NewClock returns an empty clock at cycle zero.
func NewClock() *Clock {
	return &Clock{}
}

// Register appends a component to the tick order.
func (c *Clock) Register(comp Component) {
	c.components = append(c.components, comp)
}

// Cycle reports the number of cycles fully executed so far.
func (c *Clock) Cycle() uint64 { return c.cycle }

// Step executes a single cycle.
func (c *Clock) Step() {
	for _, comp := range c.components {
		comp.Tick(c.cycle)
	}
	c.cycle++
}

// sleepers returns every registered component as a Sleeper, or ok=false
// when any component does not implement the quiescence contract — in which
// case the scheduler runs the whole simulation cycle-exactly.
func (c *Clock) sleepers() ([]Sleeper, bool) {
	out := make([]Sleeper, len(c.components))
	for i, comp := range c.components {
		sl, ok := comp.(Sleeper)
		if !ok {
			return nil, false
		}
		out[i] = sl
	}
	return out, true
}

// fastForward bulk-applies n skipped cycles to every component (which must
// all be Sleepers, pre-validated by sleepers) and then advances the clock,
// so during SkipTicks Cycle reports the span's first cycle. The
// per-component SkipTicks calls run in registration order, mirroring Step,
// though order cannot matter: a skipped span has, by construction, no
// cross-component interaction.
func (c *Clock) fastForward(sleepers []Sleeper, n uint64) {
	for _, sl := range sleepers {
		sl.SkipTicks(n)
	}
	c.cycle += n
}
