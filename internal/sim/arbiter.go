package sim

import "fade/internal/stats"

// AppThread is the application-side view the arbiter needs: the thread
// retiring the instruction stream.
//
// QuietTicks and SkipTicks are the Sleeper contract for a share-ticked
// thread, so the arbiter (and, for shared monitor cores, the system layer)
// can sleep it through spans of bulk-replayable TickShare calls. Both
// assume the share and every input (queue occupancies, producer/consumer
// state) stay frozen across the span; the scheduler guarantees that by
// only jumping when all components are quiescent.
type AppThread interface {
	// TickShare advances the thread one cycle at the given resource share.
	TickShare(share float64)
	// Done reports end-of-stream (and drained pending work).
	Done() bool
	// Stalled reports that the thread is blocked on backpressure.
	Stalled() bool
	// QuietTicks reports how many consecutive upcoming TickShare(share)
	// calls are quiescent: 0 means the very next tick does real work,
	// QuietForever means the thread only changes state when another
	// component acts.
	QuietTicks(share float64) uint64
	// SkipTicks applies the bulk effect of n quiescent TickShare(share)
	// calls; n must not exceed QuietTicks(share).
	SkipTicks(n uint64, share float64)
}

// MonThread is the monitor-side view the arbiter needs: the thread running
// software handlers. QuietTicks and SkipTicks follow AppThread's contract.
type MonThread interface {
	// TickShare advances the thread one cycle at the given resource share.
	TickShare(share float64)
	// Busy reports an in-flight handler or waiting events.
	Busy() bool
	// QuietTicks reports how many upcoming TickShare(share) calls are
	// quiescent.
	QuietTicks(share float64) uint64
	// SkipTicks applies n quiescent TickShare(share) calls.
	SkipTicks(n uint64, share float64)
}

// SMTShares computes the per-cycle resource split of a fine-grained
// dual-threaded core running the application in one hardware thread and the
// monitor in the other (Fig. 8b). The inputs are the threads' states at the
// top of the cycle:
//
//   - both threads have work: the core is shared evenly, (0.5, 0.5);
//   - the application is finished or stalled on backpressure: the monitor
//     thread owns the core, (0, 1);
//   - the monitor thread has nothing to do: the application owns the core,
//     (1, 0).
func SMTShares(appDone, appStalled, monBusy bool) (appShare, monShare float64) {
	switch {
	case monBusy && !appStalled && !appDone:
		return 0.5, 0.5
	case appDone || appStalled:
		return 0, 1
	default:
		return 1, 0
	}
}

// Arbiter ticks one core group — application thread, optional monitor
// thread, optional filtering unit — as a single Component, applying the SMT
// resource split when the two threads share a core. Intra-group order is
// consumer before accelerator before producer (monitor, FU, application): a
// value leaving a queue this cycle frees space visible next cycle, matching
// a clocked hardware boundary.
type Arbiter struct {
	App AppThread
	// Mon may be nil when the monitor thread is ticked elsewhere (a monitor
	// core shared between several application cores) or absent entirely (an
	// unmonitored baseline).
	Mon MonThread
	// FU is the group's filtering unit; nil when unaccelerated.
	FU Sleeper
	// SMT selects the shared-core resource split; it requires Mon.
	SMT bool
	// Util, when non-nil, records the group's Fig. 11(b) utilization: Tick
	// enters the thread states when they change, and the tick that
	// finishes the application closes the record and clears Util.
	// SkipTicks records nothing: a skipped span changes no state, and an
	// application thread's first tick is never skipped.
	Util *stats.Utilization
}

// The utilization states, indexes into a stats.NewUtilization(UtilStates):
// the application stalled on backpressure while the monitor side works,
// the monitor side idle, both making progress.
const (
	AppIdle = iota
	MonIdle
	BothBusy
	UtilStates
)

// Tick implements Component.
func (a *Arbiter) Tick(cycle uint64) {
	appStalled, monBusy, appShare, monShare := a.shares()
	if a.Util != nil {
		a.Util.Enter(utilState(appStalled, monBusy), cycle)
	}
	if a.Mon != nil {
		a.Mon.TickShare(monShare)
	}
	if a.FU != nil {
		a.FU.Tick(cycle)
	}
	a.App.TickShare(appShare)
	switch {
	case a.Util == nil:
	case a.App.Done():
		a.Util.Close(cycle)
		a.Util = nil
	default:
		// The post-tick states hold from the next cycle, through any skipped
		// span, unless a component ticking ahead of the arbiter moves them.
		a.Util.Enter(utilState(a.App.Stalled(), a.Mon != nil && a.Mon.Busy()), cycle+1)
	}
}

// utilState classifies the top-of-cycle thread states.
func utilState(appStalled, monBusy bool) int {
	switch {
	case !monBusy:
		return MonIdle
	case appStalled:
		return AppIdle
	default:
		return BothBusy
	}
}

// shares captures the group's top-of-cycle thread states and SMT split.
func (a *Arbiter) shares() (appStalled, monBusy bool, appShare, monShare float64) {
	appStalled = a.App.Stalled()
	monBusy = a.Mon != nil && a.Mon.Busy()
	appShare, monShare = 1.0, 1.0
	if a.SMT {
		// The accelerator is a dedicated block; only the monitor *thread*
		// competes with the application for core resources under SMT.
		appShare, monShare = SMTShares(a.App.Done(), appStalled, monBusy)
	}
	return
}

// QuietTicks implements Sleeper: the group is quiescent for the shortest
// of its members' quiet spans. The thread states — and therefore the SMT
// shares — are frozen across any span the scheduler skips, so the shares
// captured here hold for every skipped tick.
func (a *Arbiter) QuietTicks() uint64 {
	_, _, appShare, monShare := a.shares()
	quiet := a.App.QuietTicks(appShare)
	if a.Mon != nil && quiet > 0 {
		quiet = min(quiet, a.Mon.QuietTicks(monShare))
	}
	if a.FU != nil && quiet > 0 {
		quiet = min(quiet, a.FU.QuietTicks())
	}
	return quiet
}

// SkipTicks implements Sleeper, bulk-applying n skipped group ticks in
// Tick's member order (monitor, filtering unit, application).
func (a *Arbiter) SkipTicks(n uint64) {
	_, _, appShare, monShare := a.shares()
	if a.Mon != nil {
		a.Mon.SkipTicks(n, monShare)
	}
	if a.FU != nil {
		a.FU.SkipTicks(n)
	}
	a.App.SkipTicks(n, appShare)
}
