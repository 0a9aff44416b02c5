package system

import (
	"strconv"

	"fade/internal/queue"
	"fade/internal/sim"
	"fade/internal/spans"
)

// Trace wiring for runSystem. A run traces exactly when its context
// carries a spans.Trace (spans.FromContext); otherwise every hook below is
// nil and the simulation's hot path is unchanged — the same arming pattern
// as the sim.ff.* counters. Cycle-domain spans are deterministic per
// (seed, config, flags): every emitter fires on component state
// transitions, which a fixed seed reproduces exactly (the golden trace
// tests pin this byte-for-byte).

// traceProbe is the per-run episode observer: it watches each core group's
// queue extremes (MEQ/UFQ full and drain episodes) and monitor-behind
// intervals against post-tick state, which it sees by being registered
// LAST on the clock.
//
// The probe implements sim.Sleeper as the identity sleeper — never needing
// an exact tick, nothing to replay — so it does not pin fast-forward. That
// is sound, not just convenient: a fast-forward jump only covers cycles
// where every component is quiescent, i.e. where queue occupancies are
// frozen, so an episode boundary can only occur on an executed cycle,
// which the probe always observes, or at a drain the group dates itself
// (doneAt). Traced episodes are therefore identical with fast-forward on
// or off.
type traceProbe struct {
	tr     *spans.Trace
	groups []*coreGroup
	tracks []int32
	meq    []*queue.EpisodeTracer
	ufq    []*queue.EpisodeTracer

	behind      []bool
	behindSince []uint64
}

// newTraceProbe allocates one cycle-domain track per core group (in core
// order, so track allocation is deterministic) and wires the queue episode
// tracers. It returns nil when tr is nil.
func newTraceProbe(tr *spans.Trace, groups []*coreGroup, single bool) *traceProbe {
	if tr == nil {
		return nil
	}
	p := &traceProbe{
		tr:          tr,
		groups:      groups,
		tracks:      make([]int32, len(groups)),
		meq:         make([]*queue.EpisodeTracer, len(groups)),
		ufq:         make([]*queue.EpisodeTracer, len(groups)),
		behind:      make([]bool, len(groups)),
		behindSince: make([]uint64, len(groups)),
	}
	for i, g := range groups {
		name := "sim/core"
		if !single {
			name = "sim/app" + strconv.Itoa(g.idx)
		}
		p.tracks[i] = tr.NewTrack(name)
		g.eng.SetTrace(tr, p.tracks[i])
		p.meq[i] = queue.NewEpisodeTracer(g.evq, tr, p.tracks[i], spans.NameMEQFull, spans.NameMEQDrain)
		if g.fu != nil {
			p.ufq[i] = queue.NewEpisodeTracer(g.fu.UFQ(), tr, p.tracks[i], spans.NameUFQFull, spans.NameUFQDrain)
		}
	}
	return p
}

// Tick implements sim.Component, observing the cycle's post-tick state.
func (p *traceProbe) Tick(cycle uint64) {
	for i, g := range p.groups {
		p.meq[i].Observe(cycle)
		p.ufq[i].Observe(cycle)
		switch {
		case p.behind[i] && g.doneAt != 0:
			// The span ends on the cycle whose tick, exact or skipped,
			// drained the group.
			p.tr.CycleSpan(p.tracks[i], spans.NameMonBehind, p.behindSince[i], g.doneAt-1,
				spans.None, spans.None)
			p.behind[i] = false
		case !p.behind[i] && g.doneAt == 0 && g.app.Done():
			p.behind[i], p.behindSince[i] = true, cycle
		}
	}
}

// QuietTicks implements sim.Sleeper: the probe never needs an exact tick of
// its own (see the type comment for why skipping it is sound).
func (p *traceProbe) QuietTicks() uint64 { return sim.QuietForever }

// SkipTicks implements sim.Sleeper: state is frozen across a skipped span,
// so there is nothing to observe or replay.
func (p *traceProbe) SkipTicks(uint64) {}

// flush closes every episode still open when the run stopped at end —
// including aborted runs, whose partial traces are still exported.
func (p *traceProbe) flush(end uint64) {
	if p == nil {
		return
	}
	for i, g := range p.groups {
		p.meq[i].Flush(end)
		p.ufq[i].Flush(end)
		if p.behind[i] {
			stop := end
			if g.doneAt != 0 {
				stop = g.doneAt - 1 // drained on the last skipped span's final tick
			}
			p.tr.CycleSpan(p.tracks[i], spans.NameMonBehind, p.behindSince[i], stop,
				spans.None, spans.None)
			p.behind[i] = false
		}
		g.eng.FlushTrace(end)
	}
}
