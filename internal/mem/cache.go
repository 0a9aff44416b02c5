package mem

import (
	"fmt"

	"fade/internal/obs"
	"fade/internal/stats"
)

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Assoc      int
	BlockBytes int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int
}

// Validate rejects geometries NewCache cannot build: non-positive
// dimensions, a non-power-of-two block size, or a size/associativity/block
// combination whose set count is not a positive power of two. Callers that
// accept user-supplied geometry (system.ValidateSpec) pre-check with it
// so the NewCache panic marks an internal bug, never a user error.
func (c CacheConfig) Validate() error {
	if c.BlockBytes <= 0 || c.Assoc <= 0 || c.SizeBytes <= 0 {
		return fmt.Errorf("mem: %s cache geometry must be positive (size %d, assoc %d, block %d)", c.Name, c.SizeBytes, c.Assoc, c.BlockBytes)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("mem: %s cache block size must be a power of two, got %d", c.Name, c.BlockBytes)
	}
	numSets := c.SizeBytes / (c.BlockBytes * c.Assoc)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		return fmt.Errorf("mem: %s cache set count must be a positive power of two, got %d (size %d / assoc %d / block %d)", c.Name, numSets, c.SizeBytes, c.Assoc, c.BlockBytes)
	}
	return nil
}

// Standard configurations from Table 1 and Section 6.
var (
	L1Config = CacheConfig{Name: "L1", SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 2}
	L2Config = CacheConfig{Name: "L2", SizeBytes: 2 << 20, Assoc: 16, BlockBytes: 64, HitLatency: 10}
	// MDCacheConfig is the dedicated metadata cache: 4 KB, two-way,
	// one-cycle access latency (Section 6).
	MDCacheConfig = CacheConfig{Name: "MD$", SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1}
)

// DRAMLatency is the DRAM access latency in cycles (Table 1).
const DRAMLatency = 90

type line struct {
	tag   uint32
	valid bool
	lru   uint64 // last-use stamp
}

// Cache is a set-associative, true-LRU, timing-only cache model.
type Cache struct {
	cfg CacheConfig
	// lines holds every set back to back: set i is
	// lines[i*assoc : (i+1)*assoc]. One flat slice, not a slice per set,
	// saves a slice header per set (48 KB for the L2) on every core built.
	lines      []line
	assoc      uint32
	setMask    uint32
	blockShift uint
	stamp      uint64

	hits   stats.Counter
	misses stats.Counter
}

// NewCache builds a cache from cfg. It panics on a non-power-of-two
// geometry, which would indicate a configuration bug.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.BlockBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic("mem: invalid cache geometry")
	}
	numSets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("mem: number of sets must be a power of two")
	}
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic("mem: block size must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < cfg.BlockBytes {
		shift++
	}
	return &Cache{cfg: cfg, lines: make([]line, numSets*cfg.Assoc), assoc: uint32(cfg.Assoc),
		setMask: uint32(numSets - 1), blockShift: shift}
}

// set returns the lines of the set block blk maps to.
func (c *Cache) set(blk uint32) []line {
	base := (blk & c.setMask) * c.assoc
	return c.lines[base : base+c.assoc]
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up addr, updating LRU state, and reports whether it hit.
// On a miss the block is installed (allocate-on-miss for both reads and
// writes; all modeled caches are write-allocate).
func (c *Cache) Access(addr uint32) bool {
	c.stamp++
	blk := addr >> c.blockShift
	set := c.set(blk)
	tag := blk >> 0
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			c.hits.Inc()
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.stamp}
	c.misses.Inc()
	return false
}

// Probe reports whether addr is present without updating any state.
func (c *Cache) Probe(addr uint32) bool {
	blk := addr >> c.blockShift
	set := c.set(blk)
	for i := range set {
		if set[i].valid && set[i].tag == blk {
			return true
		}
	}
	return false
}

// Hits returns the number of hits observed.
func (c *Cache) Hits() uint64 { return c.hits.Value() }

// Misses returns the number of misses observed.
func (c *Cache) Misses() uint64 { return c.misses.Value() }

// MissRate returns misses / accesses (0 when unused).
func (c *Cache) MissRate() float64 {
	return stats.Ratio(c.misses.Value(), c.hits.Value()+c.misses.Value())
}

// BlockBytes returns the cache block size.
func (c *Cache) BlockBytes() int { return c.cfg.BlockBytes }

// MetricsCollector returns an obs.Collector exposing the cache's hit/miss
// counters under the given dotted prefix (e.g. "fu.mdcache").
func (c *Cache) MetricsCollector(prefix string) obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		s.Counter(prefix+".hits", c.Hits())
		s.Counter(prefix+".misses", c.Misses())
		s.Gauge(prefix+".miss_rate", c.MissRate())
	})
}

// PrefetchLatency is the exposed latency of an L1 miss covered by the
// next-line stream prefetcher: the block is (mostly) in flight already.
const PrefetchLatency = 4

// Hierarchy bundles a private L1, a shared L2, DRAM, and a next-line
// stream prefetcher into a latency oracle for a core's memory accesses.
// The prefetcher matters for calibration: sequential streams (libquantum,
// ocean) run near L1 speed despite missing, while random pointer chases
// (mcf) pay full memory latency.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	lastMissBlock uint32
	prefetchHits  stats.Counter
}

// NewHierarchy builds the Table 1 two-level hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{L1: NewCache(L1Config), L2: NewCache(L2Config)}
}

// AccessLatency runs addr through the hierarchy and returns the total
// latency in cycles: L1 hit, prefetched miss, L2 hit, or DRAM.
func (h *Hierarchy) AccessLatency(addr uint32) int {
	if h.L1.Access(addr) {
		return h.L1.cfg.HitLatency
	}
	block := addr >> h.L1.blockShift
	sequential := block == h.lastMissBlock+1
	h.lastMissBlock = block
	l2Hit := h.L2.Access(addr) // the line moves through L2 either way
	if sequential {
		h.prefetchHits.Inc()
		return h.L1.cfg.HitLatency + PrefetchLatency
	}
	if l2Hit {
		return h.L1.cfg.HitLatency + h.L2.cfg.HitLatency
	}
	return h.L1.cfg.HitLatency + h.L2.cfg.HitLatency + DRAMLatency
}

// PrefetchHits returns the number of misses covered by the prefetcher.
func (h *Hierarchy) PrefetchHits() uint64 { return h.prefetchHits.Value() }

// MetricsCollector returns an obs.Collector exposing the hierarchy's L1/L2
// hit/miss counters and prefetcher coverage under the given dotted prefix
// (e.g. "app.mem").
func (h *Hierarchy) MetricsCollector(prefix string) obs.Collector {
	return obs.CollectorFunc(func(s obs.Sink) {
		h.L1.MetricsCollector(prefix + ".l1").CollectMetrics(s)
		h.L2.MetricsCollector(prefix + ".l2").CollectMetrics(s)
		s.Counter(prefix+".prefetch_hits", h.PrefetchHits())
	})
}
