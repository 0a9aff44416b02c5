package system

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"fade/internal/monitor"
	"fade/internal/obs"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/trace"
)

// TestExecSpecWallClockExpired: a KindRun whose WallClockMS budget runs
// out before the run completes fails with sim.ErrCanceled.
func TestExecSpecWallClockExpired(t *testing.T) {
	spec := runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", Seed: 0xC10C, WallClockMS: 1}
	if _, err := ExecSpec(context.Background(), spec); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestExecSpecMatchesDirectRun: executing a minimal spec produces the
// identical Result as simulating the spelled-out paper default it
// normalizes to.
func TestExecSpecMatchesDirectRun(t *testing.T) {
	ResetBaselineCache()
	spec := defaultSpec("AddrCheck")
	spec.Benchmark = "astar"
	spec.Instrs = 10_000
	direct, err := runSystem(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecSpec(context.Background(), runspec.Spec{Benchmark: "astar", Monitor: "AddrCheck", Seed: 1, Instrs: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil {
		t.Fatal("run spec produced no Result")
	}
	if !reflect.DeepEqual(out.Result, direct) {
		t.Fatal("ExecSpec result differs from direct run")
	}
}

func TestExecSpecStudy(t *testing.T) {
	spec := runspec.Spec{
		Kind: runspec.KindStudy, Benchmark: "astar", Monitor: "MemLeak",
		EventQueueCap: 32, Seed: 1, Instrs: 10_000,
	}
	direct, err := runQueueStudy(context.Background(), spec.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Study == nil || !reflect.DeepEqual(out.Study, direct) {
		t.Fatal("study spec result differs from the direct queue study")
	}
}

func TestExecSpecBaselineAndCoreModel(t *testing.T) {
	out, err := ExecSpec(context.Background(), runspec.Spec{
		Kind: runspec.KindBaseline, Benchmark: "astar", Seed: 1, Instrs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Baseline == nil || out.Baseline.Cycles == 0 {
		t.Fatalf("baseline outcome = %+v", out.Baseline)
	}
	cm, err := ExecSpec(context.Background(), runspec.Spec{
		Kind: runspec.KindCoreModel, Benchmark: "astar", Seed: 1, Instrs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cm.CoreModel == nil || cm.CoreModel.Rate <= 0 || cm.CoreModel.Detailed <= 0 || cm.CoreModel.InOrder <= 0 {
		t.Fatalf("core model outcome = %+v", cm.CoreModel)
	}
}

func TestExecSpecRejectsBadSpecs(t *testing.T) {
	for _, s := range []runspec.Spec{
		{Benchmark: "astar", Monitor: "MemLeak", Kind: "nope"},
		{Benchmark: "no-such-bench", Monitor: "MemLeak"},
		{Benchmark: "astar", Monitor: "MemLeak", Accel: "turbo"},
	} {
		if _, err := ExecSpec(context.Background(), s); err == nil {
			t.Errorf("bad spec accepted: %+v", s)
		}
	}
}

// TestOutcomeCodecRoundTrip: a full Result (metrics, timeline, histograms,
// reports) survives the cache codec exactly.
func TestOutcomeCodecRoundTrip(t *testing.T) {
	spec := defaultSpec("MemLeak")
	spec.Instrs = 50_000
	spec.TimelineEvery = 100_000
	spec.Inject = &trace.Inject{LeakFrac: 0.4}
	res, err := run("omnet", spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Timeline) == 0 || len(res.Reports) == 0 {
		t.Fatalf("want a result with metrics, timeline, and reports; got %d timeline points, %d reports",
			len(res.Timeline), len(res.Reports))
	}
	orig := &Outcome{Result: res}
	b, err := EncodeOutcome(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatal("outcome changed across the codec")
	}
	// Determinism: encoding the decoded outcome reproduces the bytes.
	b2, err := EncodeOutcome(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("re-encoding differs")
	}
	// Encoding must not have mutated the original in place.
	if orig.Result.Metrics == nil || len(orig.Result.Timeline) == 0 {
		t.Fatal("EncodeOutcome stripped the original's snapshots")
	}
}

// TestDecodeOutcomeSharesMetricNames: outcomes decoded side by side share
// one copy of each metric name instead of holding their own.
func TestDecodeOutcomeSharesMetricNames(t *testing.T) {
	spec := defaultSpec("AddrCheck")
	spec.Instrs = 10_000
	res, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeOutcome(&Outcome{Result: res})
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	va, vc := a.Result.Metrics.Values, c.Result.Metrics.Values
	if len(va) == 0 || len(va) != len(vc) {
		t.Fatalf("decoded %d and %d metric values", len(va), len(vc))
	}
	for i := range va {
		if va[i].Name != vc[i].Name || unsafe.StringData(va[i].Name) != unsafe.StringData(vc[i].Name) {
			t.Fatalf("metric %q decoded into two copies", va[i].Name)
		}
	}
}

// TestDecodeOutcomeTrimsValues: decoded snapshots hold their values in
// an exactly sized slice. encoding/json leaves up to double the length
// as spare capacity, and a sweep keeps every decoded outcome of its table
// alive until the table is built.
func TestDecodeOutcomeTrimsValues(t *testing.T) {
	spec := defaultSpec("AddrCheck")
	spec.Instrs = 10_000
	spec.TimelineEvery = 2_000
	res, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := study(context.Background(), "astar", "AddrCheck", 32, 1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeOutcome(&Outcome{Result: res, Study: qs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	snaps := append([]*obs.Snapshot{got.Result.Metrics, got.Study.Metrics}, got.Result.Timeline...)
	if len(snaps) < 3 {
		t.Fatalf("decoded %d snapshots, want metrics, study metrics and a timeline", len(snaps))
	}
	for i, s := range snaps {
		if n, c := len(s.Values), cap(s.Values); n == 0 || c > n+n/8 {
			t.Errorf("snapshot %d: %d values in a slice of capacity %d, want at most %d", i, n, c, n+n/8)
		}
	}
}

func TestOutcomeCodecStudy(t *testing.T) {
	qs, err := study(context.Background(), "astar", "AddrCheck", 32, 1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	orig := &Outcome{Study: qs}
	b, err := EncodeOutcome(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatal("study outcome changed across the codec")
	}
}

func TestDecodeOutcomeRejectsVersionMismatch(t *testing.T) {
	if _, err := DecodeOutcome([]byte(`{"v":999}`)); err == nil {
		t.Fatal("future codec version accepted")
	}
	if _, err := DecodeOutcome([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestExecSpecCachedDifferential: with WithCache, the first call
// simulates and the second decodes — and both return the same outcome as
// the uncached path, byte for byte under the codec.
func TestExecSpecCachedDifferential(t *testing.T) {
	spec := runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", Instrs: 10_000, Seed: 1}
	plain, err := ExecSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := rcache.NewMem(8)
	first, err := ExecSpec(context.Background(), spec, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != rcache.SourceMiss {
		t.Fatalf("first cached call source = %v", first.Source)
	}
	second, err := ExecSpec(context.Background(), spec, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != rcache.SourceMem {
		t.Fatalf("second cached call source = %v", second.Source)
	}
	second.Source = rcache.SourceMiss
	if !reflect.DeepEqual(first, plain) || !reflect.DeepEqual(second, plain) {
		t.Fatal("cached outcomes differ from the uncached run")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss and 1 hit", st)
	}

	// The wall-clock budget is not part of the hash, so it must not reach
	// the cached bytes either: an entry filled under a 60 s budget reads
	// back exactly as a fresh run without one.
	budgeted := spec
	budgeted.WallClockMS = 60_000
	c = rcache.NewMem(8)
	if _, err := ExecSpec(context.Background(), budgeted, WithCache(c)); err != nil {
		t.Fatal(err)
	}
	hit, err := ExecSpec(context.Background(), spec, WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Source != rcache.SourceMem {
		t.Fatalf("budget-free read source = %v, want a hit", hit.Source)
	}
	if got, want := mustEncode(t, hit), mustEncode(t, plain); string(got) != string(want) {
		t.Fatal("an entry cached under a wall-clock budget differs from a fresh run without one")
	}
}

// TestExecSpecRecomputesStaleEntry: a cached entry that no longer decodes
// (here, one written under an old codec version) is treated as a miss —
// ExecSpec simulates, returns the fresh outcome, and overwrites the entry.
func TestExecSpecRecomputesStaleEntry(t *testing.T) {
	spec := runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", Instrs: 10_000, Seed: 1}
	dir := t.TempDir()
	c, err := rcache.New(rcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(spec.Hash(), []byte(`{"v":0,"run":{"result":{}}}`))
	out, err := ExecSpec(context.Background(), spec, WithCache(c))
	if err != nil {
		t.Fatalf("stale entry failed the run: %v", err)
	}
	if out.Source != rcache.SourceMiss {
		t.Fatalf("stale entry source = %v, want a recomputation", out.Source)
	}
	plain, err := ExecSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := mustEncode(t, plain)
	if string(mustEncode(t, out)) != string(want) {
		t.Fatal("recomputed outcome differs from a fresh run")
	}
	// The entry was overwritten on disk: a new process reads it back.
	c2, err := rcache.New(rcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	again, err := ExecSpec(context.Background(), spec, WithCache(c2))
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != rcache.SourceDisk || string(mustEncode(t, again)) != string(want) {
		t.Fatalf("rewritten entry: source %v, equal %v", again.Source, string(mustEncode(t, again)) == string(want))
	}
}

func mustEncode(t *testing.T, o *Outcome) []byte {
	t.Helper()
	b, err := EncodeOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecSpecCachedAbort: an aborted run returns its partial Result with
// the error under WithCache too, and is not cached — a retry simulates
// again.
func TestExecSpecCachedAbort(t *testing.T) {
	spec := runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", Instrs: 10_000, Seed: 1, MaxCycles: 2_000}
	c := rcache.NewMem(8)
	for i := 0; i < 2; i++ {
		out, err := ExecSpec(context.Background(), spec, WithCache(c))
		if !errors.Is(err, sim.ErrCycleCapExceeded) {
			t.Fatalf("attempt %d: err = %v, want the cycle cap", i, err)
		}
		if out == nil || out.Result == nil || out.Result.Metrics == nil {
			t.Fatalf("attempt %d: no partial result with the error", i)
		}
		if v, _ := out.Result.Metrics.Get("run.aborted"); v != 1 {
			t.Fatalf("attempt %d: run.aborted = %v", i, v)
		}
	}
	if c.Len() != 0 || c.Stats().Misses != 0 {
		t.Fatalf("an aborted run was cached: %d entries, stats %+v", c.Len(), c.Stats())
	}
}

// TestExecSpecWithMonitorUncached: a custom monitor cannot be combined
// with the cache — the spec does not identify the monitor.
func TestExecSpecWithMonitorUncached(t *testing.T) {
	mon, err := monitor.New("AddrCheck", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := runspec.Spec{Benchmark: "astar", Instrs: 10_000, Seed: 1}
	if _, err := ExecSpec(context.Background(), spec, WithMonitor(mon), WithCache(rcache.NewMem(1))); err == nil {
		t.Fatal("custom monitor accepted a cache")
	}
}
