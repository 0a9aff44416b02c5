package queue

import "fade/internal/spans"

// episodeState is the EpisodeTracer state machine position.
type episodeState uint8

const (
	episodeIdle episodeState = iota
	// episodeFull: the queue is at effective capacity and rejecting pushes.
	episodeFull
	// episodeDraining: the queue has freed a slot after a full episode but
	// has not yet emptied — the producer's backlog is catching up.
	episodeDraining
)

// EpisodeTracer turns a bounded queue's occupancy extremes into
// cycle-domain trace spans: a "full" span covering each interval during
// which pushes were rejected, followed by a "drain" span from the first
// freed slot until the queue next empties. The system layer observes each
// traced queue once per executed cycle, after components tick.
//
// Fast-forward safety: the tracer deliberately does NOT observe skipped
// cycles. A quiescent span freezes all component state — queue occupancy
// included — so a full/drain transition can only happen on an executed
// cycle, which the observer always sees; the emitted episodes are
// therefore identical whether fast-forward is on or off.
type EpisodeTracer struct {
	full  func() bool
	empty func() bool
	len   func() int

	trace     *spans.Trace
	track     int32
	fullName  string
	drainName string

	st       episodeState
	since    uint64
	onsetOcc uint64
}

// NewEpisodeTracer traces q's full/drain episodes onto trace under the
// given span names (one of the queue.meq.* / queue.ufq.* pairs in
// docs/TRACING.md). A nil trace yields a nil tracer, which is valid and
// observes nothing.
func NewEpisodeTracer[T any](q *Bounded[T], trace *spans.Trace, track int32, fullName, drainName string) *EpisodeTracer {
	if trace == nil {
		return nil
	}
	return &EpisodeTracer{
		full:      q.Full,
		empty:     q.Empty,
		len:       q.Len,
		trace:     trace,
		track:     track,
		fullName:  fullName,
		drainName: drainName,
	}
}

// Observe advances the episode state machine against the queue's post-tick
// state at the given cycle, emitting spans at episode boundaries.
func (e *EpisodeTracer) Observe(cycle uint64) {
	if e == nil {
		return
	}
	switch e.st {
	case episodeIdle:
		if e.full() {
			e.st = episodeFull
			e.since = cycle
			e.onsetOcc = uint64(e.len())
		}
	case episodeFull:
		if !e.full() {
			e.trace.CycleSpan(e.track, e.fullName, e.since, cycle,
				spans.Num("occupancy", e.onsetOcc), spans.None)
			if e.empty() {
				// Drained in one step: no separate drain phase to trace.
				e.st = episodeIdle
				return
			}
			e.st = episodeDraining
			e.since = cycle
		}
	case episodeDraining:
		switch {
		case e.full():
			// Refilled before emptying: the drain phase ends and a new
			// full episode starts at this cycle.
			e.trace.CycleSpan(e.track, e.drainName, e.since, cycle, spans.None, spans.None)
			e.st = episodeFull
			e.since = cycle
			e.onsetOcc = uint64(e.len())
		case e.empty():
			e.trace.CycleSpan(e.track, e.drainName, e.since, cycle, spans.None, spans.None)
			e.st = episodeIdle
		}
	}
}

// Flush closes any episode still open when the run terminated at the given
// end cycle.
func (e *EpisodeTracer) Flush(end uint64) {
	if e == nil {
		return
	}
	switch e.st {
	case episodeFull:
		e.trace.CycleSpan(e.track, e.fullName, e.since, end,
			spans.Num("occupancy", e.onsetOcc), spans.None)
	case episodeDraining:
		e.trace.CycleSpan(e.track, e.drainName, e.since, end, spans.None, spans.None)
	}
	e.st = episodeIdle
}
