package spans

// Span names are part of the tracing contract: stable, dotted, lowercase,
// matching the obs metric-name grammar (^[a-z0-9_.]+$). Every emitter in
// the repository uses one of the constants below, the name-coverage test
// asserts each is documented in docs/TRACING.md, and the golden trace
// tests assert emitted traces use only registered names. Per-core identity
// is carried by the span's track, never folded into the name.
const (
	// NameRun — cycle domain, scheduler track: the whole simulated run,
	// cycle 0 to the cycle the termination predicate held (or the run
	// aborted).
	NameRun = "sim.run"
	// NameFFJump — cycle domain, scheduler track: one event-driven
	// fast-forward jump over a quiescent span. Args: "reason" (why the
	// jump ended where it did: "wake", "cap", or "timeline") and "sleeper"
	// (registration index of the earliest-waking component).
	NameFFJump = "sim.ff.jump"
	// NameCheckpoint — cycle domain, scheduler track, instant: a
	// cancellation-checkpoint poll (emitted only when a context or
	// wall-clock deadline is armed, mirroring when polls happen).
	NameCheckpoint = "sim.checkpoint"
	// NameWarmBoundary — cycle domain, scheduler track, instant: the first
	// cycle at which the warm-up predicate held.
	NameWarmBoundary = "sim.warm_boundary"
	// NameAbort — cycle domain, scheduler track, instant: the run aborted.
	// Arg "reason" is "canceled", "cycle_cap", or "invariant".
	NameAbort = "sim.abort"

	// NameFaultStall — cycle domain, core track: one monitor-stall burst
	// (the injected freeze interval of the core's monitor thread).
	NameFaultStall = "fault.stall"
	// NameFaultMEQThrottle — cycle domain, core track: one MEQ-pressure
	// burst shrinking the event queue's effective capacity.
	NameFaultMEQThrottle = "fault.meq_throttle"
	// NameFaultUFQThrottle — cycle domain, core track: one UFQ-pressure
	// burst.
	NameFaultUFQThrottle = "fault.ufq_throttle"
	// NameFaultDrop — cycle domain, core track, instant: the drop probe
	// discarded one monitored event in flight.
	NameFaultDrop = "fault.drop"
	// NameFaultCorrupt — cycle domain, core track, instant: the corruption
	// probe flipped metadata bits.
	NameFaultCorrupt = "fault.corrupt"

	// NameMEQFull — cycle domain, core track: a full episode of the
	// monitored event queue — the interval during which pushes are
	// rejected and the application core backpressures. Arg "occupancy" is
	// the queue depth at episode start.
	NameMEQFull = "queue.meq.full"
	// NameMEQDrain — cycle domain, core track: the drain phase after a
	// full episode, from the first free slot until the queue next empties.
	NameMEQDrain = "queue.meq.drain"
	// NameUFQFull — cycle domain, core track: a full episode of the
	// unfiltered event queue.
	NameUFQFull = "queue.ufq.full"
	// NameUFQDrain — cycle domain, core track: the UFQ's post-full drain
	// phase.
	NameUFQDrain = "queue.ufq.drain"
	// NameMonBehind — cycle domain, core track: a monitor catch-up
	// interval — the application core has retired its last instruction
	// but events are still queued or in flight on the monitoring side.
	NameMonBehind = "mon.behind"

	// NameServeAdmit — wall domain: request parse, validation, and
	// admission of one submission. Arg "tenant".
	NameServeAdmit = "serve.admit"
	// NameServeQueueWait — wall domain: the run's time in the fair
	// admission queue, submission to dequeue.
	NameServeQueueWait = "serve.queue.wait"
	// NameServeSchedule — wall domain: dequeue to execution start (the
	// worker marking the run running).
	NameServeSchedule = "serve.schedule"
	// NameServeExecute — wall domain: the simulation itself (or the cache
	// lookup that replaced it). Args "cached" (0/1).
	NameServeExecute = "serve.execute"
	// NameServeEncode — wall domain: result-view encoding and cache store.
	NameServeEncode = "serve.encode"
	// NameServeCacheHit — wall domain, instant: the result cache served
	// this run.
	NameServeCacheHit = "serve.cache.hit"

	// NameCLIRun — wall domain: a CLI invocation's end-to-end span
	// (fadesim's single run, fadebench's whole sweep).
	NameCLIRun = "cli.run"
	// NameBenchExperiment — wall domain: one fadebench experiment. Arg
	// "exp" is the experiment id.
	NameBenchExperiment = "bench.experiment"
	// NameParCell — wall domain: one parallel sweep cell executing on a
	// par worker. Arg "cell" is the cell index.
	NameParCell = "par.cell"
)

// Names lists every registered span name; docs/TRACING.md documents each
// and the golden trace tests admit no others.
var Names = []string{
	NameRun, NameFFJump, NameCheckpoint, NameWarmBoundary, NameAbort,
	NameFaultStall, NameFaultMEQThrottle, NameFaultUFQThrottle,
	NameFaultDrop, NameFaultCorrupt,
	NameMEQFull, NameMEQDrain, NameUFQFull, NameUFQDrain, NameMonBehind,
	NameServeAdmit, NameServeQueueWait, NameServeSchedule,
	NameServeExecute, NameServeEncode, NameServeCacheHit,
	NameCLIRun, NameBenchExperiment, NameParCell,
}

// Known reports whether name is a registered span name.
func Known(name string) bool {
	for _, n := range Names {
		if n == name {
			return true
		}
	}
	return false
}
