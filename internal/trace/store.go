package trace

import (
	"slices"
	"sync"

	"fade/internal/isa"
)

// The trace store: every simulation that draws an instruction stream opens
// it here instead of running a generator of its own. A stream is a pure
// function of (profile, seed, limit), so the store generates each one once,
// packs it with the record codec as its readers first need it, and has
// every reader decode the shared, immutable bytes the others stored.

// Stream is an opened instruction stream: a Source that also reports the
// generator's hot-phase bit as it stood after the last Next (the core
// timing model reads it per instruction), and that releases its hold on
// the store when closed.
type Stream interface {
	Source
	Hot() bool
	// Close ends the stream and releases its hold on the store. Close is
	// idempotent.
	Close()
}

const (
	// chunkSize is the capacity of one storage chunk. A trace grows chunk
	// by chunk instead of re-growing one slice, so filling never holds two
	// copies of it; records never straddle chunks.
	chunkSize = 64 << 10
	// maxStoredInstrs is the longest trace the store holds (about 9 MB
	// packed). Longer and unbounded streams are generated on the fly.
	maxStoredInstrs = 1 << 21
	// minIdle is the idle allowance a store starts with: how many traces
	// no stream is reading it keeps. Sweeps dispatch the cells sharing a
	// trace back to back, so the next cell (or its baseline) finds the one
	// it needs among the last opened. Eviction goes by open order, not
	// release order: a straggler of the previous group that releases its
	// trace between two cells of the running group was opened before the
	// running group's trace, so it goes first and the running group's
	// trace stays.
	minIdle = 1
	// evictedKeys is how many evicted keys the store remembers, oldest
	// dropped first. Opening one of them again is a refill, which raises
	// the idle allowance by one, up to evictedKeys: a longer reuse
	// distance than the store remembers is no evidence to keep more.
	evictedKeys = 64
	// idleCap bounds the allocated chunk bytes of the idle set; beyond
	// it the idle traces opened longest ago go whatever the allowance,
	// down to the one opened last. The traffic that refills reads about
	// 13 streams of 20k instructions in turn (table2's cells leased in table order
	// across fabric workers; fadeserve running every monitor and
	// accelerator on one seed's streams in shuffled order), about 80 KB
	// each once trimmed, 1.1 MB in all. 2 MiB holds that set with room
	// for the previous seed's stragglers. A process that never reopens an
	// evicted stream keeps one idle trace, so the cap only bounds what
	// refills earned.
	idleCap = 2 << 20
)

// StoreSnapshot is process telemetry about the trace store: how the
// simulator ran, not what the simulated hardware did.
type StoreSnapshot struct {
	Fills     uint64 // streams entered into the store, then generated once
	Hits      uint64 // opens of a stream already in the store, complete or not
	Bypasses  uint64 // opens streamed from a generator: unbounded or too long
	Evictions uint64 // idle traces dropped
	Refills   uint64 // fills of a stream the store had evicted
	Traces    int    // traces held
	LiveBytes int64  // chunk bytes allocated for the traces held
	// IdleAllowance is how many idle traces the store keeps: minIdle
	// plus one per refill, at most evictedKeys.
	IdleAllowance int
	IdleBytes     int64 // chunk bytes allocated for the idle traces
}

// storeKey identifies a stream. Profile is compared by value, Inject
// included, so a modified copy of a registered profile never aliases it.
type storeKey struct {
	prof  Profile
	seed  uint64
	limit uint64
}

// entry is one stored trace: records in the shared record encoding, in
// chunks, with the generator that produces the rest. Its mutex guards
// everything but refs, and is held while a cursor generates, so the
// stream is generated once however many cursors read it. Bytes below a
// chunk's length are never written again. refs (guarded by the store's
// mutex) counts the open streams on the entry; it is evicted only at
// zero. opened (also guarded by the store's mutex) is the store-wide
// sequence number of the entry's latest open. bytes is the chunks'
// allocated size, which stays fixed once refs is zero.
type entry struct {
	key storeKey
	mu  sync.Mutex
	// chunks hold the stored prefix of the stream.
	chunks [][]byte
	bytes  int64
	gen    *Generator // nil once the whole stream is stored
	enc    codec      // encoder state after the stored prefix
	refs   int
	opened uint64
}

type traceStore struct {
	mu      sync.Mutex
	entries map[storeKey]*entry
	idle    []*entry   // unread entries
	opens   uint64     // opens of stored streams so far; stamps entry.opened
	evicted []storeKey // the last evictedKeys keys evicted, oldest first
	stats   StoreSnapshot
}

func newStore() *traceStore {
	return &traceStore{entries: make(map[storeKey]*entry), stats: StoreSnapshot{IdleAllowance: minIdle}}
}

// traces is the process-wide store behind Open.
var traces = newStore()

// Open returns the instruction stream of prof seeded with seed, limit
// instructions long: New(prof, seed, limit) instruction for instruction,
// hot bit included. The store holds one generator per stream: a stream
// that reaches the end of what is stored generates the next batch itself,
// returns it, and stores it for the others, so the stream is generated
// once however many streams read it. Generating and storing costs about
// 1.4 times what generating alone does; a later read decodes, at about a
// quarter of it, so a stream read twice already costs less than two
// generators. An unbounded (limit 0) or overlong stream comes straight
// from a generator. Callers Close the stream when done.
func Open(prof *Profile, seed, limit uint64) Stream { return traces.open(prof, seed, limit) }

// StoreStats returns a snapshot of the process-wide store's counters.
func StoreStats() StoreSnapshot { return traces.snapshot() }

func (s *traceStore) open(prof *Profile, seed, limit uint64) Stream {
	if limit == 0 || limit > maxStoredInstrs {
		s.mu.Lock()
		s.stats.Bypasses++
		s.mu.Unlock()
		return New(prof, seed, limit)
	}
	// New panics on an invalid profile; do so before any entry exists.
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	k := storeKey{prof: *prof, seed: seed, limit: limit}
	s.mu.Lock()
	s.opens++
	if e := s.entries[k]; e != nil {
		s.stats.Hits++
		if e.refs == 0 {
			s.unidle(e)
		}
		e.refs++
		e.opened = s.opens
		s.mu.Unlock()
		return &Replay{s: s, e: e}
	}
	// Build the generator outside the store's lock but inside the new
	// entry's, which other openers of the stream then wait on.
	e := &entry{key: k, refs: 1, opened: s.opens}
	e.mu.Lock()
	s.entries[k] = e
	s.stats.Fills++
	if i := slices.Index(s.evicted, k); i >= 0 {
		s.evicted = slices.Delete(s.evicted, i, i+1)
		s.stats.Refills++
		s.stats.IdleAllowance = min(s.stats.IdleAllowance+1, evictedKeys)
	}
	s.stats.Traces++
	s.mu.Unlock()
	e.gen = New(prof, seed, limit)
	e.mu.Unlock()
	return &Replay{s: s, e: e}
}

// release drops one stream's hold on e. An entry nobody reads joins the
// idle set, whose members opened longest ago are evicted beyond the idle
// allowance or while they hold more than idleCap bytes. The one opened
// last stays, so idle bytes never exceed idleCap plus one trace.
func (s *traceStore) release(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.refs--; e.refs > 0 {
		return
	}
	s.idle = append(s.idle, e)
	s.stats.IdleBytes += e.bytes
	for len(s.idle) > s.stats.IdleAllowance || len(s.idle) > 1 && s.stats.IdleBytes > idleCap {
		i := 0
		for j, c := range s.idle {
			if c.opened < s.idle[i].opened {
				i = j
			}
		}
		old := s.idle[i]
		s.idle = slices.Delete(s.idle, i, i+1)
		delete(s.entries, old.key)
		if len(s.evicted) == evictedKeys {
			s.evicted = slices.Delete(s.evicted, 0, 1)
		}
		s.evicted = append(s.evicted, old.key)
		s.stats.Evictions++
		s.stats.Traces--
		s.stats.LiveBytes -= old.bytes
		s.stats.IdleBytes -= old.bytes
		old.chunks, old.gen = nil, nil
	}
}

// unidle removes e from the idle set; the caller holds s.mu.
func (s *traceStore) unidle(e *entry) {
	if i := slices.Index(s.idle, e); i >= 0 {
		s.idle = slices.Delete(s.idle, i, i+1)
		s.stats.IdleBytes -= e.bytes
	}
}

func (s *traceStore) snapshot() StoreSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// batchLen is how many instructions a cursor generates at a time once it
// reaches the end of what is stored.
const batchLen = 256

// Replay is a cursor over one stream in the store. It decodes the stored
// prefix; past it, it generates a batch under the entry's lock, returns
// it from its own buffer and stores it for the other cursors. Until it is
// closed it holds the trace, even once read to the end, so eviction never
// invalidates it and a drained stream's trace stays stored while its
// reader finishes.
type Replay struct {
	s *traceStore
	e *entry // nil once released

	// The stored bytes not yet decoded: view, the rest of chunk ci from
	// offset off as last seen.
	ci, off int
	view    []byte
	dec     codec

	// A generated batch: batch[bi:] are still to be returned; bit i of
	// hots is batch[i]'s hot bit.
	batch []isa.Instr
	hots  [batchLen / 64]uint64
	bi    int

	hot bool
}

// Next implements Source.
func (r *Replay) Next() (isa.Instr, bool) {
	for {
		if r.bi < len(r.batch) {
			in := r.batch[r.bi]
			r.hot = r.hots[r.bi/64]>>(r.bi%64)&1 != 0
			r.bi++
			return in, true
		}
		if len(r.view) > 0 {
			var in isa.Instr
			hot, n, err := r.dec.decode(r.view, &in)
			if err != nil {
				panic(err) // the store wrote these bytes with the same codec
			}
			r.view = r.view[n:]
			r.off += n
			r.hot = hot
			return in, true
		}
		if !r.refill() {
			return isa.Instr{}, false
		}
	}
}

// refill moves the cursor to stored bytes it has not decoded, or, at the
// end of what is stored, generates the next batch. It reports false at
// the end of the stream.
func (r *Replay) refill() bool {
	e := r.e
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r.batch, r.bi = r.batch[:0], 0
	for r.ci < len(e.chunks) {
		if c := e.chunks[r.ci]; r.off < len(c) {
			r.view = c[r.off:]
			return true
		}
		if r.ci+1 == len(e.chunks) {
			break
		}
		r.ci, r.off = r.ci+1, 0
	}
	if e.gen == nil {
		return false
	}
	r.generate(e)
	return len(r.batch) > 0
}

// generate extends e's stored stream by up to batchLen records, which the
// cursor returns from its buffer; the caller holds e.mu and the cursor is
// at the end of what is stored. When the generator ends, the last chunk
// is trimmed to its length: a copy, so cursors still reading the old
// array see the same bytes.
func (r *Replay) generate(e *entry) {
	if r.batch == nil {
		r.batch = make([]isa.Instr, 0, batchLen)
	}
	r.hots = [batchLen / 64]uint64{}
	var cur []byte // the last chunk, stored back into e.chunks when done
	if len(e.chunks) > 0 {
		cur = e.chunks[len(e.chunks)-1]
	}
	var grew int
	for len(r.batch) < batchLen {
		in, ok := e.gen.Next()
		if !ok {
			e.gen = nil
			if cur != nil && cap(cur) > len(cur) {
				grew -= cap(cur) - len(cur)
				cur = append(make([]byte, 0, len(cur)), cur...)
			}
			break
		}
		hot := e.gen.Hot()
		if cap(cur)-len(cur) < maxRecordLen {
			if cur != nil {
				e.chunks[len(e.chunks)-1] = cur
			}
			cur = make([]byte, 0, chunkSize)
			e.chunks = append(e.chunks, cur)
			grew += chunkSize
		}
		cur = e.enc.append(cur, &in, hot)
		if hot {
			r.hots[len(r.batch)/64] |= 1 << (len(r.batch) % 64)
		}
		r.batch = append(r.batch, in)
	}
	if cur != nil {
		e.chunks[len(e.chunks)-1] = cur
		r.ci, r.off, r.view = len(e.chunks)-1, len(cur), nil
	}
	r.dec = e.enc
	if grew != 0 {
		e.bytes += int64(grew)
		r.s.mu.Lock()
		r.s.stats.LiveBytes += int64(grew)
		r.s.mu.Unlock()
	}
}

// Hot reports the generator's hot-phase bit as it stood after the record
// Next last returned.
func (r *Replay) Hot() bool { return r.hot }

// Close implements Stream. The stream ends: a closed cursor returns no
// more records, since its trace may be evicted.
func (r *Replay) Close() {
	if r.e != nil {
		r.s.release(r.e)
		r.e = nil
	}
	r.view, r.batch, r.bi = nil, nil, 0
}
