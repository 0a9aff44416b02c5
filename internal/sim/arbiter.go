package sim

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
	// Observe, when non-nil, receives the top-of-cycle thread states after
	// the group ticks, on cycles where the application has not finished —
	// the raw material of the Fig. 11(b) utilization breakdown. n is the
	// number of cycles the states held: 1 on an executed cycle, the span
	// length on a fast-forwarded one, during which they are frozen.
	Observe func(appStalled, monBusy bool, n uint64)
}

// Tick implements Component.
func (a *Arbiter) Tick(cycle uint64) {
	appStalled, monBusy, appShare, monShare := a.shares()
	if a.Mon != nil {
		a.Mon.TickShare(monShare)
	}
	if a.FU != nil {
		a.FU.Tick(cycle)
	}
	a.App.TickShare(appShare)
	if a.Observe != nil && !a.App.Done() {
		a.Observe(appStalled, monBusy, 1)
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
// Tick's member order (monitor, filtering unit, application, observation).
func (a *Arbiter) SkipTicks(n uint64) {
	appStalled, monBusy, appShare, monShare := a.shares()
	if a.Mon != nil {
		a.Mon.SkipTicks(n, monShare)
	}
	if a.FU != nil {
		a.FU.SkipTicks(n)
	}
	a.App.SkipTicks(n, appShare)
	if a.Observe != nil && !a.App.Done() {
		a.Observe(appStalled, monBusy, n)
	}
}
