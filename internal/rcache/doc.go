// Package rcache is a content-addressed result store: completed simulation
// results keyed by runspec.Spec.Hash. It generalizes (and replaced) the
// system layer's bespoke baseline LRU.
//
// The cache is layered. A bounded in-memory LRU serves repeats within a
// process; an optional disk backend (Options.Dir) persists entries across
// processes, which is what makes fadebench sweeps resumable, local or
// distributed, and lets fadeserve answer a resubmitted identical run
// instantly. Disk entries are versioned and checksummed, written atomically
// (write-to-temp + rename), and read corruption-tolerantly: a truncated or
// bit-flipped entry is detected, counted in cache.disk.corrupt, removed,
// and recomputed — never a panic or a wrong result.
//
// Do adds single-flight de-duplication: concurrent callers with the same
// key share one computation, and a failed computation is not cached, so a
// later caller retries instead of replaying the error. A computation that
// panics counts as failed: its waiters retry before the panic propagates.
//
// The cache exposes its counters through Collector (the cache.* namespace
// in docs/METRICS.md).
package rcache
