package rcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fade/internal/obs"
)

// Key is a content address: runspec.Spec.Hash, or any other SHA-256 the
// caller derives from canonical bytes.
type Key = [32]byte

// Source reports where Do found (or put) a value.
type Source int

const (
	// SourceMiss: the value was computed by this call (and cached).
	SourceMiss Source = iota
	// SourceMem: served from the in-memory LRU.
	SourceMem
	// SourceDisk: served from the disk backend (and promoted to memory).
	SourceDisk
)

// String returns the source name for logs and test failures.
func (s Source) String() string {
	switch s {
	case SourceMem:
		return "mem"
	case SourceDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Options configures a Cache.
type Options struct {
	// MemEntries bounds the in-memory LRU (0 = 512 entries).
	MemEntries int
	// Dir, when non-empty, enables the persistent disk backend; it is
	// created if missing.
	Dir string
}

// Stats is a point-in-time copy of the cache's counters.
type Stats struct {
	Hits             uint64 // memory + disk hits
	Misses           uint64 // computations performed
	SingleFlightWait uint64 // callers that waited on another's computation
	DiskReads        uint64 // entries served from disk
	DiskWrites       uint64 // entries persisted to disk
	DiskCorrupt      uint64 // corrupt disk entries detected and evicted
}

// Cache is a content-addressed result store: a bounded memory LRU over an
// optional checksummed disk backend, with single-flight de-duplication.
// All methods are safe for concurrent use.
type Cache struct {
	dir string // "" = memory-only

	mu      sync.Mutex
	cap     int
	entries map[Key]*list.Element // of lruEntry
	lru     *list.List            // front = most recent
	flights map[Key]*flight

	hits        atomic.Uint64
	misses      atomic.Uint64
	sfWaits     atomic.Uint64
	diskReads   atomic.Uint64
	diskWrites  atomic.Uint64
	diskCorrupt atomic.Uint64
}

type lruEntry struct {
	key Key
	val []byte
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  []byte
	src  Source
	err  error
}

// New opens a cache with the given options, creating the disk directory if
// configured.
func New(o Options) (*Cache, error) {
	if o.MemEntries <= 0 {
		o.MemEntries = 512
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rcache: %w", err)
		}
		sweepTemps(o.Dir)
	}
	return &Cache{
		dir:     o.Dir,
		cap:     o.MemEntries,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		flights: make(map[Key]*flight),
	}, nil
}

// NewMem returns a memory-only cache holding at most entries values.
func NewMem(entries int) *Cache {
	c, _ := New(Options{MemEntries: entries})
	return c
}

// Do returns the cached value for key, computing and caching it on a miss.
// Concurrent callers with the same key share one computation (the Source
// for waiters mirrors the winner's). A computation error is returned but
// not cached: the flight is dropped so a later caller retries. A panicking
// computation fails its flight the same way before the panic propagates.
// A waiter whose ctx ends before the flight does returns ctx.Err() as it
// is, unwrapped.
func (c *Cache) Do(ctx context.Context, key Key, compute func(context.Context) ([]byte, error)) ([]byte, Source, error) {
	for {
		c.mu.Lock()
		if val, ok := c.memGetLocked(key); ok {
			c.mu.Unlock()
			c.hits.Add(1)
			return val, SourceMem, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			c.sfWaits.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, SourceMiss, ctx.Err()
			}
			if f.err == nil {
				c.hits.Add(1)
				return f.val, f.src, nil
			}
			// The winner failed; loop and retry (possibly becoming the
			// next winner ourselves).
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		return c.lead(ctx, key, f, compute)
	}
}

// errComputePanicked is what a flight's waiters see when its compute
// panicked; like any failure it sends them round to retry.
var errComputePanicked = errors.New("rcache: compute panicked")

// lead runs flight f as its winner and then settles it: f leaves the
// flight table, a success enters memory, and f.done is closed. Settling is
// deferred so that a panicking compute still releases the waiters (with
// errComputePanicked) before its panic reaches the caller.
func (c *Cache) lead(ctx context.Context, key Key, f *flight, compute func(context.Context) ([]byte, error)) ([]byte, Source, error) {
	f.err = errComputePanicked
	defer func() {
		c.mu.Lock()
		// Reset may have swapped the flights map; only remove our own.
		if cur, ok := c.flights[key]; ok && cur == f {
			delete(c.flights, key)
		}
		if f.err == nil {
			c.memPutLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.src, f.err = c.fill(ctx, key, compute)
	return f.val, f.src, f.err
}

// fill resolves a miss: disk first, then compute (persisting the result).
func (c *Cache) fill(ctx context.Context, key Key, compute func(context.Context) ([]byte, error)) ([]byte, Source, error) {
	if val, ok := c.diskGet(key); ok {
		c.hits.Add(1)
		c.diskReads.Add(1)
		return val, SourceDisk, nil
	}
	val, err := compute(ctx)
	if err != nil {
		return nil, SourceMiss, err
	}
	c.misses.Add(1)
	c.diskPut(key, val)
	return val, SourceMiss, nil
}

// Get returns the cached value for key without computing, checking memory
// then disk (a disk hit is promoted to memory). The counters treat it like
// a read: hit on success, nothing on absence.
func (c *Cache) Get(key Key) ([]byte, Source, bool) {
	c.mu.Lock()
	if val, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return val, SourceMem, true
	}
	c.mu.Unlock()
	if val, ok := c.diskGet(key); ok {
		c.hits.Add(1)
		c.diskReads.Add(1)
		c.mu.Lock()
		c.memPutLocked(key, val)
		c.mu.Unlock()
		return val, SourceDisk, true
	}
	return nil, SourceMiss, false
}

// Put stores val under key in both layers.
func (c *Cache) Put(key Key, val []byte) {
	c.mu.Lock()
	c.memPutLocked(key, val)
	c.mu.Unlock()
	c.diskPut(key, val)
}

// Reset drops the in-memory layer and detaches in-flight computations
// (their results are discarded rather than cached). The disk backend is
// untouched: Reset is a test hook for "forget what this process has seen",
// not a cache wipe.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key]*list.Element)
	c.lru.Init()
	c.flights = make(map[Key]*flight)
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		SingleFlightWait: c.sfWaits.Load(),
		DiskReads:        c.diskReads.Load(),
		DiskWrites:       c.diskWrites.Load(),
		DiskCorrupt:      c.diskCorrupt.Load(),
	}
}

// Collector exposes the counters as the cache.* metric namespace (see
// docs/METRICS.md).
func (c *Cache) Collector() obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		st := c.Stats()
		s.Counter("cache.hits", st.Hits)
		s.Counter("cache.misses", st.Misses)
		s.Counter("cache.singleflight.waits", st.SingleFlightWait)
		s.Counter("cache.disk.reads", st.DiskReads)
		s.Counter("cache.disk.writes", st.DiskWrites)
		s.Counter("cache.disk.corrupt", st.DiskCorrupt)
	})
}

func (c *Cache) memGetLocked(key Key) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *Cache) memPutLocked(key Key, val []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&lruEntry{key: key, val: val})
	for len(c.entries) > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
}

// Disk entry format: magic "FRC1", format version (uint32 LE), payload
// length (uint64 LE), SHA-256 of the payload, payload. Anything that does
// not parse — short file, wrong magic/version, length or checksum
// mismatch — is corrupt: counted, removed, recomputed.
const (
	diskMagic   = "FRC1"
	diskVersion = 1
	headerLen   = 4 + 4 + 8 + sha256.Size
)

// sweepTemps removes tmp-*.rc files left behind by a process that died
// between CreateTemp and the rename in diskPut. They are invisible to
// lookups — an entry only exists once its complete file is renamed into
// place — so the sweep reclaims disk space; correctness never depended
// on it.
func sweepTemps(dir string) {
	matches, err := filepath.Glob(filepath.Join(dir, "tmp-*.rc"))
	if err != nil {
		return
	}
	for _, m := range matches {
		os.Remove(m)
	}
}

func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, hex.EncodeToString(key[:])+".rc")
}

func (c *Cache) diskGet(key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false // absent (or unreadable: treated as absent)
	}
	payload, ok := decodeEntry(raw)
	if !ok {
		c.diskCorrupt.Add(1)
		os.Remove(path)
		return nil, false
	}
	return payload, true
}

func (c *Cache) diskPut(key Key, val []byte) {
	if c.dir == "" {
		return
	}
	path := c.path(key)
	tmp, err := os.CreateTemp(c.dir, "tmp-*.rc")
	if err != nil {
		return // disk persistence is best-effort; memory still has it
	}
	_, werr := tmp.Write(encodeEntry(val))
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
		return
	}
	c.diskWrites.Add(1)
}

func encodeEntry(payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	copy(buf, diskMagic)
	binary.LittleEndian.PutUint32(buf[4:], diskVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:], sum[:])
	copy(buf[headerLen:], payload)
	return buf
}

func decodeEntry(raw []byte) ([]byte, bool) {
	if len(raw) < headerLen || string(raw[:4]) != diskMagic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(raw[4:]) != diskVersion {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(raw[8:])
	payload := raw[headerLen:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(raw[16:16+sha256.Size]) {
		return nil, false
	}
	return payload, true
}
