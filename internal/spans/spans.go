package spans

import (
	"context"
	"sync"
	"time"

	"fade/internal/obs"
)

// DefaultCapacity is the ring size selected when New is given a
// non-positive capacity: large enough to hold every span of a typical run,
// small enough that a per-run trace costs well under a megabyte.
const DefaultCapacity = 8192

// Domain is a span's clock domain.
type Domain uint8

const (
	// Wall spans are stamped in microseconds since the trace epoch.
	Wall Domain = iota
	// Cycle spans are stamped in simulated cycles.
	Cycle
)

// String returns the domain's wire name.
func (d Domain) String() string {
	if d == Cycle {
		return "cycle"
	}
	return "wall"
}

// Kind distinguishes duration spans from point events.
type Kind uint8

const (
	// KindSpan is a complete interval [Start, Start+Dur).
	KindSpan Kind = iota
	// KindInstant is a point event at Start (Dur is zero).
	KindInstant
)

// Arg is one key-value span annotation. A zero Arg (empty Key) is absent;
// Str empty means the value is the number Num.
type Arg struct {
	Key string
	Str string
	Num uint64
}

// Num returns a numeric argument.
func Num(key string, v uint64) Arg { return Arg{Key: key, Num: v} }

// Str returns a string argument.
func Str(key, v string) Arg { return Arg{Key: key, Str: v} }

// None is the absent argument.
var None Arg

// Span is one trace entry. The struct is flat and pointer-free so the ring
// is a single allocation for the life of the trace.
type Span struct {
	Name   string
	Domain Domain
	Kind   Kind
	// Track is the swimlane index: WallTrack for wall-clock spans, a
	// NewTrack index for cycle-domain spans (one per simulated core plus
	// one for the scheduler).
	Track int32
	// Start is microseconds since the trace epoch (wall domain) or the
	// starting cycle (cycle domain).
	Start uint64
	// Dur is the span length in the domain's unit; 0 for instants.
	Dur uint64
	// Args holds up to two annotations; unused slots have an empty Key.
	Args [2]Arg
}

// End returns the first stamp past the span.
func (s *Span) End() uint64 { return s.Start + s.Dur }

// WallTrack is the track index of the wall-clock domain. Cycle-domain
// emitters allocate their tracks with NewTrack.
const WallTrack int32 = 0

// Trace is a bounded, run-scoped span ring. All methods are safe for
// concurrent use and safe on a nil receiver (a nil trace records nothing),
// so emitters guard with a single nil check.
type Trace struct {
	id    string
	epoch time.Time

	mu      sync.Mutex
	buf     []Span
	head    int // index of the oldest retained span
	size    int
	emitted uint64
	dropped uint64
	sealed  bool
	tracks  []string
}

// New returns an empty trace identified by id holding at most capacity
// spans (capacity <= 0 selects DefaultCapacity). The wall-clock epoch is
// the construction time.
func New(id string, capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{
		id:     id,
		epoch:  time.Now(),
		buf:    make([]Span, capacity),
		tracks: []string{"wall"},
	}
}

// ID returns the trace identifier (the run ID on the serving path).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Epoch returns the trace's wall-clock zero point.
func (t *Trace) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// NewTrack registers a named cycle-domain swimlane and returns its index.
// Track registration order must be deterministic for a deterministic
// export; the simulator registers its tracks at run setup, in core order.
func (t *Trace) NewTrack(name string) int32 {
	if t == nil {
		return WallTrack
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracks = append(t.tracks, name)
	return int32(len(t.tracks) - 1)
}

// Tracks returns the track names, index-aligned (index 0 is the wall
// track).
func (t *Trace) Tracks() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// push appends one span, overwriting the oldest on overflow. A sealed
// trace keeps what it holds and counts the span as dropped.
func (t *Trace) push(s Span) {
	t.mu.Lock()
	t.emitted++
	if t.sealed {
		t.dropped++
	} else if t.size == len(t.buf) {
		t.buf[t.head] = s
		t.head = (t.head + 1) % len(t.buf)
		t.dropped++
	} else {
		t.buf[(t.head+t.size)%len(t.buf)] = s
		t.size++
	}
	t.mu.Unlock()
}

// Wall records a wall-clock span from start to end. Ends before starts (or
// stamps before the epoch) clamp to zero-length rather than underflowing.
func (t *Trace) Wall(name string, start, end time.Time, a0, a1 Arg) {
	if t == nil {
		return
	}
	us := t.wallUS(start)
	durUS := uint64(0)
	if end.After(start) {
		durUS = uint64(end.Sub(start).Microseconds())
	}
	t.push(Span{Name: name, Domain: Wall, Kind: KindSpan, Track: WallTrack,
		Start: us, Dur: durUS, Args: [2]Arg{a0, a1}})
}

// WallInstant records a wall-clock point event.
func (t *Trace) WallInstant(name string, at time.Time, a0, a1 Arg) {
	if t == nil {
		return
	}
	t.push(Span{Name: name, Domain: Wall, Kind: KindInstant, Track: WallTrack,
		Start: t.wallUS(at), Args: [2]Arg{a0, a1}})
}

func (t *Trace) wallUS(at time.Time) uint64 {
	if !at.After(t.epoch) {
		return 0
	}
	return uint64(at.Sub(t.epoch).Microseconds())
}

// CycleSpan records a cycle-domain span covering cycles [from, to) on the
// given track. A to <= from records a zero-length span at from.
func (t *Trace) CycleSpan(track int32, name string, from, to uint64, a0, a1 Arg) {
	if t == nil {
		return
	}
	dur := uint64(0)
	if to > from {
		dur = to - from
	}
	t.push(Span{Name: name, Domain: Cycle, Kind: KindSpan, Track: track,
		Start: from, Dur: dur, Args: [2]Arg{a0, a1}})
}

// CycleInstant records a cycle-domain point event at the given cycle.
func (t *Trace) CycleInstant(track int32, name string, at uint64, a0, a1 Arg) {
	if t == nil {
		return
	}
	t.push(Span{Name: name, Domain: Cycle, Kind: KindInstant, Track: track,
		Start: at, Args: [2]Arg{a0, a1}})
}

// Spans returns the retained spans in emission order (oldest first).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansLocked()
}

func (t *Trace) spansLocked() []Span {
	out := make([]Span, t.size)
	for i := 0; i < t.size; i++ {
		out[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	return out
}

// Seal freezes a finished trace: the ring shrinks to exactly the spans it
// holds, so a long-lived record of a finished run does not keep a
// full-capacity ring. Spans emitted after Seal are safe, recorded nowhere,
// and counted in Emitted and Dropped. Sealing twice is a no-op.
func (t *Trace) Seal() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	t.buf, t.head, t.sealed = t.spansLocked(), 0, true
}

// Len returns the number of retained spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Cap returns the ring capacity (after Seal, the number of spans held).
func (t *Trace) Cap() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Emitted returns the lifetime span count, including dropped spans.
func (t *Trace) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted
}

// Dropped returns how many spans the ring overwrote.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Collector exposes the trace's accounting under the spans.* name space
// (see docs/METRICS.md): spans.emitted, spans.dropped, and the ring's
// occupancy and capacity.
func (t *Trace) Collector() obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		t.mu.Lock()
		emitted, dropped, size, capacity := t.emitted, t.dropped, t.size, len(t.buf)
		t.mu.Unlock()
		s.Counter("spans.emitted", emitted)
		s.Counter("spans.dropped", dropped)
		s.Gauge("spans.ring.occupancy", float64(size))
		s.Gauge("spans.ring.capacity", float64(capacity))
	})
}

// ctxKey is the context key type for trace propagation.
type ctxKey struct{}

// NewContext returns ctx carrying the trace. The trace rides the ordinary
// cancellation context from the serving layer through the worker pool into
// the simulator, so every layer of one run annotates the same timeline.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. The nil return is
// directly usable: every Trace method no-ops on a nil receiver.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// WithoutTrace shadows any trace carried by ctx: FromContext on the result
// returns nil while cancellation still flows. Layers that fan one traced
// request out into many sub-runs use it to keep the shared ring from being
// flooded (e.g. a sweep keeps its trace wall-domain by stripping it before
// each cell's simulator).
func WithoutTrace(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, (*Trace)(nil))
}
