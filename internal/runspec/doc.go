// Package runspec defines the canonical description of one simulation
// run: a JSON-round-trippable Spec naming the benchmark, monitor,
// acceleration mode, topology, seed, instruction budget, fault plan, and
// execution knobs, with a deterministic canonical encoding and a stable
// content hash.
//
// Every layer of the repository that used to carry its own private notion
// of "a run" — the serving API's submission schema, the experiment
// harness's per-table cell tuples, the system layer's baseline cache key —
// constructs or consumes a Spec instead. Because simulations are
// byte-deterministic functions of their Spec (PR 1), Spec.Hash is a
// content address: internal/rcache keys completed results by it, which is
// what makes sweeps resumable (fadebench -cache-dir), distributable
// (fadebench -coordinator with fadeworker processes), and instantly
// replayable (fadeserve's "cached": true).
//
// The hash covers exactly the fields that can change a run's result or
// its metrics dump, after normalization (zero values are folded onto
// their documented defaults, so an explicit default hashes identically to
// an omitted field). Execution budgets that cannot change a completed
// result — the wall-clock budget — and out-of-Spec execution knobs
// (worker-pool width, output flags) are excluded; see DESIGN.md's
// "Spec canonicalization" section and the golden-hash test, which pins
// the encoding so an accidental change (silently invalidating every disk
// cache) fails loudly.
package runspec
