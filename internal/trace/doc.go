// Package trace synthesizes the dynamic instruction streams that drive the
// monitoring systems. The paper evaluates SPEC CPU2006 integer benchmarks
// (and SPLASH-2/PARSEC for AtomCheck) under Flexus full-system simulation;
// neither the binaries nor the simulator are available here, so this package
// implements the closest synthetic equivalent: a program-execution model
// with a real call stack, heap allocator, and register/memory value tags,
// parameterized per benchmark so the *event stream* seen by the monitors
// matches the statistics the paper reports (instruction mix, monitored IPC,
// call/return and malloc/free rates, pointer and taint density, burstiness).
// DESIGN.md §1 records this substitution.
//
// Profiles are registered at init; Source yields instructions
// deterministically from (profile, seed, limit). Record/Reader serialize a
// stream to the compact binary trace format for replay.
//
// Because a stream is a pure function of (profile, seed, limit), the
// simulator generates each one once. Open looks the stream up in a
// process-wide store keyed by the full Profile value (Inject included),
// the seed and the limit, and returns a Replay cursor. The store keeps one
// generator per stream. A cursor decodes what is already stored; at the
// end of it, the cursor generates the next batch of records under the
// stream's lock, returns them and stores them for the other cursors. So
// concurrent readers never generate the same records twice. The first
// read costs about 1.4 times a Generator's, the later ones about a
// quarter of it. Records are packed into fixed-size chunks in the record
// encoding trace files use (codec.go), about 4 bytes per instruction. Hot
// reports the generator's hot-phase bit as it stood after the last Next,
// so the core timing model sees exactly what a Generator would have
// produced. Unbounded streams and streams over 2^21 instructions come
// from a Generator directly.
//
// A cursor holds its trace until it is closed, even once read to the
// end; an open cursor's trace is never evicted. Released traces join an
// idle set that starts at one trace; beyond it, the idle traces opened
// longest ago are evicted. Eviction goes by open order, not release
// order, so a straggler of a sweep's previous trace group, releasing its
// trace between two cells of the running group, evicts its own trace and
// not the running group's.
// The store remembers the last 64 keys it evicted: opening one of them
// again is a refill, and each refill raises the idle allowance by one.
// Sweeps dispatch the cells that share a trace back to back (package
// experiments), so a sweep seldom reopens an evicted stream and keeps an
// idle set of one; traffic that returns to its streams in turn, such as
// fabric workers leasing a table in table order or fadeserve's shuffled
// requests, earns an idle set that holds them. Idle traces never hold
// more than 2 MiB of chunks plus the one opened last, and a finished
// trace's final chunk is trimmed to its length. StoreStats reports fills, hits, bypasses,
// evictions, refills, the idle allowance and live and idle bytes as
// process telemetry; they never enter a simulation Result.
package trace
