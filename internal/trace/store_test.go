package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// sameStream drains got against a fresh generator for the same stream and
// fails on the first difference in any field or in the hot bit, which is
// compared before the first Next, after every Next and after the end. It
// closes got.
func sameStream(t *testing.T, name string, got Stream, prof *Profile, seed, limit uint64) {
	t.Helper()
	want := New(prof, seed, limit)
	if got.Hot() != want.Hot() {
		t.Fatalf("%s: hot bit before the first record: got %v, want %v", name, got.Hot(), want.Hot())
	}
	for i := 0; ; i++ {
		w, okW := want.Next()
		g, okG := got.Next()
		if okW != okG {
			t.Fatalf("%s: streams end at different lengths (record %d)", name, i)
		}
		if g != w {
			t.Fatalf("%s: record %d:\n  want %+v\n  got  %+v", name, i, w, g)
		}
		if got.Hot() != want.Hot() {
			t.Fatalf("%s: hot bit after record %d: got %v, want %v", name, i, got.Hot(), want.Hot())
		}
		if !okW {
			break
		}
	}
	if _, ok := got.Next(); ok {
		t.Fatalf("%s: stream yielded a record past its end", name)
	}
	if got.Hot() != want.Hot() {
		t.Fatalf("%s: hot bit after the end changed", name)
	}
	got.Close()
}

// TestReplayMatchesGenerator is the store's exactness proof: every
// profile, several seeds, and injected profiles replay instruction for
// instruction, hot bit included.
func TestReplayMatchesGenerator(t *testing.T) {
	s := newStore()
	const limit = 20_000
	for _, name := range AllNames() {
		prof, _ := Lookup(name)
		for _, seed := range []uint64{1, 7, 0xDEADBEEF} {
			// The first open generates the stream, the second decodes it.
			sameStream(t, fmt.Sprintf("%s/seed%d generated", name, seed), s.open(prof, seed, limit), prof, seed, limit)
			sameStream(t, fmt.Sprintf("%s/seed%d stored", name, seed), s.open(prof, seed, limit), prof, seed, limit)
		}
	}
	base, _ := Lookup("astar")
	for _, inj := range []Inject{
		{LeakFrac: 0.3},
		{WildAccessPer1K: 2},
		{TaintedJump: true},
		{AtomViolation: true},
	} {
		p := *base
		if inj.TaintedJump {
			p = *mustLookup(t, "gcc")
		}
		if inj.AtomViolation {
			p = *mustLookup(t, "ocean")
		}
		p.Inject = inj
		sameStream(t, fmt.Sprintf("%s%+v", p.Name, inj), s.open(&p, 3, limit), &p, 3, limit)
		sameStream(t, fmt.Sprintf("%s%+v replayed", p.Name, inj), s.open(&p, 3, limit), &p, 3, limit)
	}
	// The injected copies are their own keys, not aliases of the
	// registered profiles: every stream was generated once, read twice.
	if st := s.snapshot(); st.Hits != st.Fills {
		t.Fatalf("distinct streams shared a stored trace: %+v", st)
	}
}

func mustLookup(t *testing.T, name string) *Profile {
	t.Helper()
	p, ok := Lookup(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return p
}

// TestReplayPartialConsumer stops a consumer part-way: closing it returns
// the trace to the idle set, and the next opener decodes the stored prefix
// and generates the rest with the same generator.
func TestReplayPartialConsumer(t *testing.T) {
	s := newStore()
	prof := mustLookup(t, "mcf")
	src := s.open(prof, 5, 10_000)
	for i := 0; i < 1234; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	src.Close()
	src.Close() // idempotent
	if _, ok := src.Next(); ok {
		t.Fatal("a closed stream yielded a record")
	}
	if st := s.snapshot(); st.Fills != 1 || st.Traces != 1 {
		t.Fatalf("after a partial read: %+v", st)
	}
	sameStream(t, "reopened", s.open(prof, 5, 10_000), prof, 5, 10_000)
	if st := s.snapshot(); st.Fills != 1 || st.Hits != 1 {
		t.Fatalf("reopen regenerated the trace: %+v", st)
	}
}

// TestOpenBypassesStore: unbounded and overlong streams come straight from
// a generator and store nothing.
func TestOpenBypassesStore(t *testing.T) {
	s := newStore()
	prof := mustLookup(t, "gcc")
	if _, ok := s.open(prof, 1, 0).(*Generator); !ok {
		t.Fatal("limit 0 did not stream from a generator")
	}
	if _, ok := s.open(prof, 1, maxStoredInstrs+1).(*Generator); !ok {
		t.Fatal("an overlong trace did not stream from a generator")
	}
	if st := s.snapshot(); st.Bypasses != 2 || st.Fills != 0 || st.Traces != 0 {
		t.Fatalf("bypassed opens touched the store: %+v", st)
	}
}

// TestOpenSingleFlight opens one key from many goroutines at once: exactly
// one fill happens and every opener reads the identical stream.
func TestOpenSingleFlight(t *testing.T) {
	s := newStore()
	prof := mustLookup(t, "hmmer")
	const n = 8
	var want bytes.Buffer
	Record(&want, prof.Name, New(prof, 11, 30_000), 0)
	got := make([]bytes.Buffer, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			src := s.open(prof, 11, 30_000)
			defer src.Close()
			Record(&got[i], prof.Name, src, 0)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Fatalf("opener %d read a different stream", i)
		}
	}
	st := s.snapshot()
	if st.Fills != 1 || st.Hits != n-1 {
		t.Fatalf("want 1 fill and %d hits, got %+v", n-1, st)
	}
	if st.Traces != 1 || st.LiveBytes <= 0 {
		t.Fatalf("the released trace was not kept idle: %+v", st)
	}
}

// TestEvictionKeepsCursorsValid: an entry an open cursor reads is never
// evicted, however many other traces come and go; idle entries beyond
// minIdle are evicted, opened longest ago first, and their bytes leave
// LiveBytes; a closed cursor returns no more records.
func TestEvictionKeepsCursorsValid(t *testing.T) {
	s := newStore()
	prof := mustLookup(t, "bzip")
	held := s.open(prof, 1, 8_000)
	want := New(prof, 1, 8_000)
	readSame(t, held, want, 4_000)
	s.open(prof, 1, 8_000).Close() // a second reader leaves; held still holds it
	for seed := uint64(2); seed < 6; seed++ {
		s.open(prof, seed, 8_000).Close()
	}
	st := s.snapshot()
	if st.Evictions != 3 || st.Traces != 1+minIdle || s.entries[storeKey{prof: *prof, seed: 1, limit: 8_000}] == nil {
		t.Fatalf("want 3 evictions and the held trace plus %d idle, got %+v", minIdle, st)
	}
	readSame(t, held, want, 4_001) // to the end, and one past it
	if _, ok := held.Next(); ok {
		t.Fatal("a drained stream yielded a record")
	}
	held.Close()
	// The held trace was last opened before seed 5's, so releasing it
	// evicts it and keeps seed 5's.
	key := func(seed uint64) storeKey { return storeKey{prof: *prof, seed: seed, limit: 8_000} }
	if st := s.snapshot(); st.Evictions != 4 || s.entries[key(1)] != nil || s.entries[key(5)] == nil {
		t.Fatalf("want the held trace evicted and seed 5's kept, got %+v", st)
	}

	again := s.open(prof, 5, 8_000)
	if s.snapshot().Fills != st.Fills {
		t.Fatal("the idle trace opened last was evicted and regenerated")
	}
	again.Next()
	again.Close()
	if _, ok := again.Next(); ok {
		t.Fatal("a closed stream yielded a record")
	}
	for seed := uint64(10); seed < 13; seed++ {
		s.open(prof, seed, 8_000).Close()
	}
	st = s.snapshot()
	one := s.entries[storeKey{prof: *prof, seed: 12, limit: 8_000}]
	if st.Traces != minIdle || one == nil || st.LiveBytes != one.bytes {
		t.Fatalf("released traces were not evicted: %+v", st)
	}
}

// TestDrainedCursorHoldsTrace: a cursor read to its end still holds its
// trace until it is closed, as a simulation that has read its whole stream
// still runs until its monitor drains. Releasing another trace meanwhile
// must not evict it, and reopening it must not regenerate it.
func TestDrainedCursorHoldsTrace(t *testing.T) {
	s := newStore()
	prof := mustLookup(t, "astar")
	running := s.open(prof, 1, 8_000)
	for {
		if _, ok := running.Next(); !ok {
			break
		}
	}
	drain(s.open(mustLookup(t, "libq"), 1, 8_000)) // a straggler leaves
	again := s.open(prof, 1, 8_000)
	if st := s.snapshot(); st.Evictions != 0 || st.Refills != 0 || st.Fills != 2 || st.Hits != 1 {
		t.Fatalf("the drained cursor's trace was evicted while it was open: %+v", st)
	}
	again.Close()
	running.Close()
}

// TestStoreStragglerKeepsRunningGroupTrace: a running group's trace goes idle
// between two of its cells, and then a straggler of the previous group
// releases its trace, opened earlier. The straggler's trace is evicted;
// reopening the running group's trace is a hit.
func TestStoreStragglerKeepsRunningGroupTrace(t *testing.T) {
	s := newStore()
	prev, cur := mustLookup(t, "libq"), mustLookup(t, "astar")
	straggler := s.open(prev, 1, 8_000)
	drain(s.open(cur, 1, 8_000)) // a cell of the running group ends
	drain(straggler)
	again := s.open(cur, 1, 8_000)
	defer again.Close()
	if st := s.snapshot(); st.Fills != 2 || st.Hits != 1 || st.Refills != 0 || st.Evictions != 1 {
		t.Fatalf("the running group's trace was evicted by the straggler's release: %+v", st)
	}
	if s.entries[storeKey{prof: *prev, seed: 1, limit: 8_000}] != nil {
		t.Fatal("the straggler's trace was kept over the running group's")
	}
}

// TestReplayCompactness pins the packed size the store's memory bound
// rests on.
func TestReplayCompactness(t *testing.T) {
	s := newStore()
	for _, name := range []string{"gcc", "mcf", "hmmer", "ocean"} {
		drain(s.open(mustLookup(t, name), 1, 100_000))
		perInstr := float64(s.snapshot().LiveBytes) / 100_000
		t.Logf("%s: %.2f bytes/instr", name, perInstr)
		if perInstr > 5 {
			t.Errorf("%s: stored trace costs %.2f bytes/instr", name, perInstr)
		}
	}
}

// TestReplayAllocs: replaying from the store or from a trace file
// allocates nothing per record.
func TestReplayAllocs(t *testing.T) {
	prof := mustLookup(t, "astar")
	s := newStore()
	drain(s.open(prof, 1, 50_000))
	src := s.open(prof, 1, 50_000)
	if a := testing.AllocsPerRun(10_000, func() { src.Next() }); a != 0 {
		t.Errorf("Replay.Next allocates %.1f times per record", a)
	}
	var buf bytes.Buffer
	Record(&buf, prof.Name, New(prof, 1, 50_000), 0)
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10_000, func() { rd.Next() }); a != 0 {
		t.Errorf("Reader.Next allocates %.1f times per record", a)
	}
	if rd.Err() != nil {
		t.Fatal(rd.Err())
	}
}

// TestFillPanicLeavesNoEntry: a profile New rejects panics in Open, as New
// itself would, and leaves nothing behind in the store.
func TestFillPanicLeavesNoEntry(t *testing.T) {
	s := newStore()
	bad := *mustLookup(t, "gcc")
	bad.LoadFrac = 2
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an invalid profile did not panic")
			}
		}()
		s.open(&bad, 1, 1_000)
	}()
	if st := s.snapshot(); len(s.entries) != 0 || st.Fills != 0 || st.LiveBytes != 0 {
		t.Fatalf("a failed fill left state behind: %+v, %d entries", st, len(s.entries))
	}
}

// drain reads src to its end and closes it.
func drain(src Stream) {
	for {
		if _, ok := src.Next(); !ok {
			src.Close()
			return
		}
	}
}

// TestInterleavedReadersShareOneGenerator: two streams of one trace read
// alternately from one goroutine, each sometimes ahead of the other, both
// reproduce the generator, and the stream is generated once.
func TestInterleavedReadersShareOneGenerator(t *testing.T) {
	s := newStore()
	prof := mustLookup(t, "ocean")
	const n = 100_000
	a, b := s.open(prof, 4, n), s.open(prof, 4, n)
	wa, wb := New(prof, 4, n), New(prof, 4, n)
	for moreA, moreB := true, true; moreA || moreB; {
		moreA = moreA && readSame(t, a, wa, 7_001)
		moreB = moreB && readSame(t, b, wb, 3_001)
	}
	e := s.entries[storeKey{prof: *prof, seed: 4, limit: n}]
	if st := s.snapshot(); st.Fills != 1 || st.Hits != 1 || e == nil || e.gen != nil {
		t.Fatalf("want one fill, one hit and a complete trace, got %+v", st)
	}
}

// readSame reads k records from src and from want side by side and fails
// on the first difference in a record or its hot bit; it reports whether
// the streams have more records.
func readSame(t *testing.T, src Stream, want *Generator, k int) bool {
	t.Helper()
	for i := 0; i < k; i++ {
		g, okG := src.Next()
		w, okW := want.Next()
		if okG != okW || g != w || src.Hot() != want.Hot() {
			t.Fatalf("record differs: got %+v, want %+v", g, w)
		}
		if !okW {
			return false
		}
	}
	return true
}

// roundRobinKeys is n distinct streams limit instructions long: every
// profile in turn, seeds counting up past the last.
func roundRobinKeys(t *testing.T, n int, seed0, limit uint64) []storeKey {
	t.Helper()
	names := AllNames()
	keys := make([]storeKey, n)
	for i := range keys {
		keys[i] = storeKey{prof: *mustLookup(t, names[i%len(names)]), seed: seed0 + uint64(i/len(names)), limit: limit}
	}
	return keys
}

// openKey opens k's stream in s.
func openKey(s *traceStore, k storeKey) Stream { return s.open(&k.prof, k.seed, k.limit) }

// TestRefillsRaiseIdleAllowance: a pass reads 13 streams round-robin
// twice, as a sweep whose cells interleave benchmarks does. The first pass
// generates each stream, then regenerates the ones evicted, and every
// such refill raises the idle allowance; the second pass generates
// nothing.
func TestRefillsRaiseIdleAllowance(t *testing.T) {
	s := newStore()
	const n = 13
	keys := roundRobinKeys(t, n, 1, 20_000)
	pass := func() {
		for round := 0; round < 2; round++ {
			for _, k := range keys {
				drain(openKey(s, k))
				if st := s.snapshot(); st.IdleBytes > idleCap {
					t.Fatalf("idle bytes over the cap: %+v", st)
				}
			}
		}
	}
	pass()
	first := s.snapshot()
	if first.Refills != n-1 || first.Fills != 2*n-1 || first.IdleAllowance != n {
		t.Fatalf("first pass: want %d fills, %d refills and allowance %d, got %+v", 2*n-1, n-1, n, first)
	}
	pass()
	if st := s.snapshot(); st.Fills != first.Fills || st.Evictions != first.Evictions {
		t.Fatalf("the second pass regenerated streams: %+v, then %+v", first, st)
	}
	k := keys[0]
	sameStream(t, "kept", openKey(s, k), &k.prof, k.seed, k.limit)
}

// TestStoreFreshKeysKeepOneIdle: streams that are never reopened leave the
// allowance at its start, and every fill but the last is evicted, as
// with an idle set of one.
func TestStoreFreshKeysKeepOneIdle(t *testing.T) {
	s := newStore()
	for _, k := range roundRobinKeys(t, 40, 100, 5_000) {
		drain(openKey(s, k))
		st := s.snapshot()
		if st.IdleAllowance != minIdle || st.Refills != 0 || st.Evictions != st.Fills-1 || st.Traces != 1 {
			t.Fatalf("fresh keys changed the idle policy: %+v", st)
		}
		if e := s.entries[k]; e == nil || st.IdleBytes != e.bytes || st.LiveBytes != e.bytes {
			t.Fatalf("the idle set is not the last stream released: %+v", st)
		}
	}
}

// TestStoreIdleBytesUnderCap: refills raise the allowance, but idle bytes
// never exceed idleCap plus one trace, and a trace larger than the cap is
// still kept as the one idle trace.
func TestStoreIdleBytesUnderCap(t *testing.T) {
	s := newStore()
	// About 400 KB a trace: six overflow the cap.
	keys := roundRobinKeys(t, 6, 1, 100_000)
	var largest int64
	check := func() {
		t.Helper()
		st := s.snapshot()
		for _, e := range s.idle {
			largest = max(largest, e.bytes)
		}
		if st.IdleBytes > idleCap+largest {
			t.Fatalf("idle bytes %d over the cap %d plus one trace (%d)", st.IdleBytes, idleCap, largest)
		}
		var idle int64
		for _, e := range s.idle {
			idle += e.bytes
		}
		if idle != st.IdleBytes || len(s.idle) > st.IdleAllowance {
			t.Fatalf("idle set %d traces, %d bytes; stats %+v", len(s.idle), idle, st)
		}
	}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			drain(openKey(s, k))
			check()
		}
	}
	st := s.snapshot()
	if st.IdleAllowance <= len(keys)/2 || st.IdleBytes <= idleCap/2 {
		t.Fatalf("refills did not grow the idle set: %+v", st)
	}
	big := mustLookup(t, "gcc")
	drain(s.open(big, 9, 600_000))
	check()
	if e := s.entries[storeKey{prof: *big, seed: 9, limit: 600_000}]; e == nil || e.bytes <= idleCap || len(s.idle) != 1 {
		t.Fatalf("a trace over the cap was not kept alone: %+v", s.snapshot())
	}
}

// TestReplayAcrossTrim: the generator ends while two other cursors
// still read views of the final chunk; trimming that chunk to its length
// copies it, and every cursor still reproduces the generator.
func TestReplayAcrossTrim(t *testing.T) {
	s := newStore()
	prof := mustLookup(t, "astar")
	const seed, limit = 3, 40_000
	lead, b, c := s.open(prof, seed, limit), s.open(prof, seed, limit), s.open(prof, seed, limit)
	wl, wb, wc := New(prof, seed, limit), New(prof, seed, limit), New(prof, seed, limit)
	readSame(t, lead, wl, limit-300)
	readSame(t, b, wb, limit-2_000)
	readSame(t, c, wc, limit-500)
	e := s.entries[storeKey{prof: *prof, seed: seed, limit: limit}]
	last := len(e.chunks) - 1
	if last < 1 || cap(e.chunks[last]) != chunkSize {
		t.Fatalf("want an untrimmed final chunk after the first, got %d chunks", len(e.chunks))
	}
	for _, r := range []*Replay{b.(*Replay), c.(*Replay)} {
		if r.ci != last || len(r.view) == 0 {
			t.Fatal("a lagging cursor does not hold a view of the final chunk")
		}
	}
	untrimmed := &e.chunks[last][0]
	readSame(t, lead, wl, limit) // to the end: the generator ends
	if &e.chunks[last][0] == untrimmed {
		t.Fatal("the final chunk was not copied: its 64 KiB array is still held")
	}
	var alloc int64
	for _, ch := range e.chunks {
		alloc += int64(cap(ch))
	}
	if e.gen != nil || cap(e.chunks[last]) != len(e.chunks[last]) || e.bytes != alloc || s.snapshot().LiveBytes != alloc {
		t.Fatalf("the final chunk was not trimmed: %d of %d bytes, %d accounted", len(e.chunks[last]), cap(e.chunks[last]), e.bytes)
	}
	for moreB, moreC := true, true; moreB || moreC; {
		moreB = moreB && readSame(t, b, wb, 700)
		moreC = moreC && readSame(t, c, wc, 300)
	}
	sameStream(t, "after the trim", s.open(prof, seed, limit), prof, seed, limit)
}
