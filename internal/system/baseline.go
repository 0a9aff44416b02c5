package system

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"fade/internal/cpu"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/trace"
)

// The baseline store memoizes unmonitored runs: every monitored
// configuration of the same (profile, core, seed, length) shares one
// baseline. It is an rcache instance keyed by the canonical KindBaseline
// spec hash, which buys the semantics the old hand-rolled LRU implemented
// by hand: single-flight (when the parallel experiment runner fans out N
// cells sharing a baseline, one worker simulates it and the rest wait),
// failure-not-cached (a canceled or timed-out baseline is retried by the
// next caller with a live context), and LRU bounding (a long-lived process
// sweeping many keys holds a fixed number of entries).

// baselineCacheCap bounds the store. 64 comfortably covers one full
// experiment sweep (19 profiles x a handful of (seed, instrs, warmup)
// variants) while capping resident entries.
const baselineCacheCap = 64

var baselineStore = rcache.NewMem(baselineCacheCap)

// baselineSims counts actual baseline simulations (not cache hits); the
// thundering-herd regression test asserts it stays at one per key under
// concurrency.
var baselineSims atomic.Uint64

type baselineVal struct {
	cycles   uint64
	boundary uint64 // cycle at which WarmupInstrs instructions had retired
}

// baselineSpec is the canonical identity of the unmonitored baseline of
// a run of s over prof (whose Inject already carries the spec's bug
// injection). Deliberately excluded, preserving the old cache-key
// semantics: MaxCycles and the wall-clock deadline (execution budgets — a
// completed baseline is the same under any), and FastForward (results are
// byte-identical either way, so both modes share an entry).
func baselineSpec(prof *trace.Profile, s runspec.Spec) runspec.Spec {
	b := runspec.Spec{
		Kind:         runspec.KindBaseline,
		Benchmark:    prof.Name,
		Core:         s.Core,
		Seed:         s.Seed,
		Instrs:       s.Instrs,
		WarmupInstrs: s.WarmupInstrs,
	}
	if prof.Inject != (trace.Inject{}) {
		inj := prof.Inject
		b.Inject = &inj
	}
	return b
}

// baselineVal round-trips through the store as 16 bytes, little-endian.
func encodeBaselineVal(v baselineVal) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], v.cycles)
	binary.LittleEndian.PutUint64(b[8:], v.boundary)
	return b[:]
}

func decodeBaselineVal(b []byte) (baselineVal, error) {
	if len(b) != 16 {
		return baselineVal{}, fmt.Errorf("system: baseline cache entry is %d bytes, want 16", len(b))
	}
	return baselineVal{
		cycles:   binary.LittleEndian.Uint64(b[:8]),
		boundary: binary.LittleEndian.Uint64(b[8:]),
	}, nil
}

// ResetBaselineCache empties the baseline store. It is a test hook: cache
// contents never affect results (entries are deterministic functions of
// their keys), only how often the unmonitored simulation re-runs.
func ResetBaselineCache() { baselineStore.Reset() }

// baselineCacheLen reports the live entry count (test hook).
func baselineCacheLen() int { return baselineStore.Len() }

// runBaseline measures the unmonitored application-only execution time that
// slowdowns are normalized to, and the warm-up boundary cycle, for a run
// of the normalized spec s over prof. ctx and deadline bound the
// computation but are not part of the cache key: a canceled or timed-out
// baseline fails without being cached, so a later caller with a live
// context recomputes it.
func runBaseline(ctx context.Context, prof *trace.Profile, s runspec.Spec, deadline time.Time) (baselineVal, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, _, err := baselineStore.Do(ctx, baselineSpec(prof, s).Hash(), func(ctx context.Context) ([]byte, error) {
		val, err := simulateBaseline(ctx, prof, s, deadline)
		if err != nil {
			return nil, err
		}
		return encodeBaselineVal(val), nil
	})
	if err != nil {
		return baselineVal{}, err
	}
	return decodeBaselineVal(b)
}

// simulateBaseline performs the actual unmonitored run on the sim kernel:
// one component (the application core at full share), terminating at
// end-of-stream, under the spec's cycle cap and fast-forward setting.
func simulateBaseline(ctx context.Context, prof *trace.Profile, s runspec.Spec, deadline time.Time) (baselineVal, error) {
	baselineSims.Add(1)
	src := trace.Open(prof, s.Seed, s.Instrs)
	defer src.Close()
	app := cpu.NewAppCore(coreKinds[s.Core], prof, src, nil, nil)
	clock := sim.NewClock()
	clock.Register(&sim.Arbiter{App: app})
	sched := &sim.Scheduler{Clock: clock, MaxCycles: s.CycleCap(), Ctx: ctx,
		Done: func() bool { return app.Done() }, Deadline: deadline,
		FastForward: s.FastForward}
	if s.WarmupInstrs > 0 {
		sched.Warmed = func() bool { return app.Instrs() >= s.WarmupInstrs }
	}
	out := sched.Run()
	if !out.Completed {
		return baselineVal{boundary: out.WarmBoundary}, fmt.Errorf("system: baseline for %s aborted: %w", prof.Name, out.Err)
	}
	return baselineVal{cycles: out.Cycles, boundary: out.WarmBoundary}, nil
}
