package spans

import (
	"context"
	"math"
	"sync"
	"time"

	"fade/internal/obs"
)

// DefaultCapacity is the ring size selected when New is given a
// non-positive capacity: large enough to hold every span of a typical run.
// The live ring is allocated whole, so a trace at this capacity costs
// 8192 × 120 B = 960 KiB until Seal packs what it holds into records of
// at most 48 B each.
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

// Span is one trace entry. It is 120 bytes and holds five string headers
// (the name and each argument's key and string); the live ring is one
// allocation of capacity Spans. Seal packs a finished trace's spans into
// pointer-free records (packedSpan).
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
	buf     []Span // the live ring; nil once Seal has packed the spans
	head    int    // index of the oldest retained span
	size    int
	emitted uint64
	dropped uint64
	sealed  bool
	tracks  []string
	// packed holds a sealed trace's spans, oldest first, with their
	// strings indexed into strs (strs[0] is "").
	packed []packedSpan
	strs   []string
}

// packedSpan is a sealed trace's record of one span: the Span's fields,
// with the name and every argument key and string replaced by its index
// in the trace's own string table. It is 48 bytes and holds no pointer,
// so a sealed trace's spans are one allocation the garbage collector
// never scans. The table is per trace, not process-wide, because argument
// strings come from clients (the serving path's tenant) and a shared
// table would grow without bound.
type packedSpan struct {
	start, dur uint64
	num        [2]uint64
	track      int32
	name       uint16
	key, str   [2]uint16
	domain     Domain
	kind       Kind
}

func (p *packedSpan) unpack(strs []string) Span {
	return Span{Name: strs[p.name], Domain: p.domain, Kind: p.kind, Track: p.track,
		Start: p.start, Dur: p.dur, Args: [2]Arg{
			{Key: strs[p.key[0]], Str: strs[p.str[0]], Num: p.num[0]},
			{Key: strs[p.key[1]], Str: strs[p.str[1]], Num: p.num[1]},
		}}
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
	if t.buf == nil {
		for i := range t.packed {
			out[i] = t.packed[i].unpack(t.strs)
		}
		return out
	}
	for i := 0; i < t.size; i++ {
		out[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	return out
}

// capLocked is the ring capacity, or after Seal the number of spans held.
func (t *Trace) capLocked() int {
	if t.buf == nil {
		return len(t.packed)
	}
	return len(t.buf)
}

// Seal freezes a finished trace: its spans are packed into 48-byte,
// pointer-free records over a string table of the trace's own, so a
// long-lived record of a finished run keeps neither a full-capacity ring
// nor a string header per field. Readers (Spans and the exporters) see
// exactly the spans held before. A trace holding more distinct strings
// than a uint16 indexes keeps its spans unpacked instead, in a ring shrunk
// to the spans it holds. Spans emitted after Seal are safe, recorded
// nowhere, and counted in Emitted and Dropped. Sealing twice is a no-op.
func (t *Trace) Seal() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	t.sealed = true
	if packed, strs, ok := t.packLocked(); ok {
		t.buf, t.packed, t.strs = nil, packed, strs
	} else {
		t.buf = t.spansLocked()
	}
	t.head = 0
}

// packLocked packs the ring's spans, oldest first, with the string table
// they index. It reports false when the spans hold more distinct strings
// than a uint16 indexes.
func (t *Trace) packLocked() ([]packedSpan, []string, bool) {
	strs := []string{""}
	index := map[string]uint16{"": 0}
	intern := func(s string) uint16 {
		i, seen := index[s]
		if !seen {
			i = uint16(len(strs)) // wraps past the table's limit; checked below
			index[s] = i
			strs = append(strs, s)
		}
		return i
	}
	out := make([]packedSpan, t.size)
	for i := range out {
		s := &t.buf[(t.head+i)%len(t.buf)]
		out[i] = packedSpan{start: s.Start, dur: s.Dur, track: s.Track, name: intern(s.Name),
			domain: s.Domain, kind: s.Kind}
		for j, a := range s.Args {
			out[i].key[j], out[i].str[j], out[i].num[j] = intern(a.Key), intern(a.Str), a.Num
		}
	}
	return out, strs, len(strs) <= math.MaxUint16+1
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
	return t.capLocked()
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
		emitted, dropped, size, capacity := t.emitted, t.dropped, t.size, t.capLocked()
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
