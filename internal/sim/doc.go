// Package sim provides the deterministic cycle-level simulation kernel used
// by every timing model in this repository: a splitmix64-based random number
// generator, a component/clock abstraction, and run-loop helpers with warmup
// and measurement windows (mirroring the SMARTS-style sampling methodology of
// the paper at a much smaller scale).
//
// Determinism is the load-bearing property: every source of randomness is
// seeded through RNG, so identical (benchmark, config, seed) triples
// reproduce identical cycle counts, metric snapshots, and tables.
//
// Fast-forward rests on one quiescence contract, stated relative to each
// component's own state: a Sleeper reports QuietTicks, how many of its
// upcoming ticks are bulk-replayable, and SkipTicks(n) applies n of them.
// AppThread and MonThread require the same pair at a resource share, so an
// Arbiter is itself a Sleeper. The Scheduler resolves the registered
// components once, when a run is armed (a component that is not a Sleeper
// pins the run cycle-exact), and each iteration jumps over the shortest
// quiet span, clamped to the cycle cap and the next timeline sample. A
// jump advances the clock and the components' own spans and nothing else:
// statistics are recorded when they change (queue occupancy as dwell time,
// the Arbiter's utilization states), and nothing changes inside a quiet
// span.
package sim
