package system

import (
	"context"
	"reflect"
	"testing"
	"unsafe"

	"fade/internal/cpu"
	"fade/internal/fault"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/trace"
)

// TestSpecConfigRoundTrip: Config -> Spec -> Config preserves every run-
// identity field, and both directions agree on the enum vocabularies.
func TestSpecConfigRoundTrip(t *testing.T) {
	cfg := DefaultConfig("MemLeak")
	cfg.Instrs = 50_000
	cfg.Seed = 7
	cfg.Core = cpu.OoO2
	cfg.Accel = FADEBlocking
	cfg.BlockingSignalCycles = 14
	cfg.MDCacheBytes = 2048
	cfg.WarmupInstrs = 5_000
	cfg.TimelineEvery = 10_000
	cfg.FastForward = true
	cfg.Faults = &fault.Plan{Seed: 3, EventDrop: &fault.Drop{Rate: 0.01}}

	spec := SpecFromConfig("astar", cfg)
	if spec.Benchmark != "astar" || spec.Accel != runspec.AccelBlocking || spec.Core != runspec.Core2Way {
		t.Fatalf("spec = %+v", spec)
	}
	back, err := ConfigFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The topology normalizes (SingleCoreSMT spelled explicitly), which is
	// the same system.
	cfg.Topology = cfg.Topology.normalize()
	if !reflect.DeepEqual(back, cfg) {
		t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, cfg)
	}
}

// TestSpecLimitsMapping: spec MaxCycles/WallClockMS become RunLimits.
func TestSpecLimitsMapping(t *testing.T) {
	s := runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", MaxCycles: 9999, WallClockMS: 1500}
	cfg, err := ConfigFromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Limits.MaxCycles != 9999 || cfg.Limits.WallClock.Milliseconds() != 1500 {
		t.Fatalf("limits = %+v", cfg.Limits)
	}
	back := SpecFromConfig("astar", cfg)
	if back.MaxCycles != 9999 || back.WallClockMS != 1500 {
		t.Fatalf("spec = %+v", back)
	}
}

// TestExecSpecMatchesDirectRun: executing a spec produces the identical
// Result as the legacy Config entry point.
func TestExecSpecMatchesDirectRun(t *testing.T) {
	ResetBaselineCache()
	cfg := DefaultConfig("AddrCheck")
	cfg.Instrs = 10_000
	direct, err := Run("astar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecSpec(context.Background(), SpecFromConfig("astar", cfg))
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil {
		t.Fatal("run spec produced no Result")
	}
	if !reflect.DeepEqual(out.Result, direct) {
		t.Fatal("ExecSpec result differs from direct Run")
	}
}

func TestExecSpecStudy(t *testing.T) {
	direct, err := RunQueueStudy("astar", "MemLeak", cpu.OoO4, 32, 1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecSpec(context.Background(), runspec.Spec{
		Kind: runspec.KindStudy, Benchmark: "astar", Monitor: "MemLeak",
		EventQueueCap: 32, Seed: 1, Instrs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Study == nil || !reflect.DeepEqual(out.Study, direct) {
		t.Fatal("study spec result differs from direct RunQueueStudy")
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
	cfg := DefaultConfig("MemLeak")
	cfg.Instrs = 50_000
	cfg.TimelineEvery = 100_000
	cfg.Inject = &trace.Inject{LeakFrac: 0.4}
	res, err := Run("omnet", cfg)
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
	cfg := DefaultConfig("AddrCheck")
	cfg.Instrs = 10_000
	res, err := Run("astar", cfg)
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

func TestOutcomeCodecStudy(t *testing.T) {
	qs, err := RunQueueStudy("astar", "AddrCheck", cpu.OoO4, 32, 1, 10_000)
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

// TestExecSpecCachedDifferential: with a cache, the first call simulates
// and the second decodes — and both return the same outcome as the
// uncached path, byte for byte under the codec.
func TestExecSpecCachedDifferential(t *testing.T) {
	spec := SpecFromConfig("astar", Config{Monitor: "MemLeak", Instrs: 10_000, Seed: 1})
	plain, err := ExecSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := rcache.NewMem(8)
	first, src1, err := ExecSpecCached(context.Background(), c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if src1 != rcache.SourceMiss {
		t.Fatalf("first cached call source = %v", src1)
	}
	second, src2, err := ExecSpecCached(context.Background(), c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != rcache.SourceMem {
		t.Fatalf("second cached call source = %v", src2)
	}
	if !reflect.DeepEqual(first, plain) || !reflect.DeepEqual(second, plain) {
		t.Fatal("cached outcomes differ from the uncached run")
	}
}
