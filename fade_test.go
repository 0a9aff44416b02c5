package fade

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestPublicRun(t *testing.T) {
	out, err := Exec(context.Background(), Spec{Benchmark: "astar", Monitor: "MemLeak", Seed: 1, Instrs: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if res.Slowdown < 1 || res.Filter == nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Filter.FilterRatio() <= 0 {
		t.Fatal("nothing filtered")
	}
}

func TestPublicQueueStudy(t *testing.T) {
	out, err := Exec(context.Background(), Spec{Kind: KindStudy, Benchmark: "astar", Monitor: "AddrCheck",
		EventQueueCap: UnboundedQueue, Seed: 1, Instrs: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	qs := out.Study
	if qs.MonitoredIPC <= 0 {
		t.Fatal("no monitored load measured")
	}
}

func TestPublicRegistries(t *testing.T) {
	if len(MonitorNames()) != 5 {
		t.Fatalf("monitors = %v", MonitorNames())
	}
	if len(Benchmarks()) != 8 || len(ParallelBenchmarks()) != 5 || len(TaintBenchmarks()) != 4 {
		t.Fatal("benchmark registries wrong")
	}
	if _, ok := LookupProfile("astar"); !ok {
		t.Fatal("astar profile missing")
	}
	if _, ok := LookupProfile("nope"); ok {
		t.Fatal("bogus profile found")
	}
	for _, name := range MonitorNames() {
		if _, err := NewMonitor(name, 4); err != nil {
			t.Fatalf("NewMonitor(%s): %v", name, err)
		}
	}
}

// TestAcceleratorLevelAPI drives the filtering unit directly through the
// public API, the path a downstream user building a custom monitor takes.
func TestAcceleratorLevelAPI(t *testing.T) {
	md := NewMetadataState()
	fu, evq, ufq := NewFilteringUnit(false, md)

	// Program a MemLeak-style clean check: filter loads whose source word
	// and destination register are both non-pointers.
	fu.Inv.Set(0, 0)
	fu.Table.Set(1, Entry{
		S1: OperandRule{Valid: true, Mem: true, MDBytes: 1, Mask: 0xFF, INVid: 0},
		D:  OperandRule{Valid: true, MDBytes: 1, Mask: 0xFF, INVid: 0},
		CC: true, HandlerPC: 0x4000,
	})

	// A clean event filters; a pointer-touching event reaches software.
	md.Mem.Store(0x2000, 1)
	evq.Push(Event{ID: 1, Addr: 0x1000, Dest: 3, Src1: 0xFF, Src2: 0xFF, Seq: 0})
	evq.Push(Event{ID: 1, Addr: 0x2000, Dest: 3, Src1: 0xFF, Src2: 0xFF, Seq: 1})
	for i := 0; i < 60; i++ {
		fu.Tick(uint64(i))
	}
	if fu.Stats().Filtered() != 1 {
		t.Fatalf("filtered = %d", fu.Stats().Filtered())
	}
	u, ok := ufq.Pop()
	if !ok || u.Ev.Seq != 1 {
		t.Fatalf("unfiltered = %+v, %v", u, ok)
	}
	fu.Complete(1)
}

func TestPublicExperiment(t *testing.T) {
	tbl, err := RunExperiment("synth", ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "FADE total") {
		t.Fatal("synth table incomplete")
	}
	if len(ExperimentIDs()) != 21 {
		t.Fatalf("experiment ids = %v", ExperimentIDs())
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSynthReport(t *testing.T) {
	if !strings.Contains(SynthReport(), "grand total") {
		t.Fatal("synth report incomplete")
	}
}

func TestInjectionThroughPublicAPI(t *testing.T) {
	out, err := Exec(context.Background(), Spec{Benchmark: "bzip", Monitor: "TaintCheck", Seed: 1, Instrs: 80_000,
		Inject: &Inject{TaintedJump: true}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	alerts := 0
	for _, r := range res.Reports {
		if r.Kind == "tainted-jump" {
			alerts++
		}
	}
	if alerts == 0 {
		t.Fatal("injected exploit not detected through public API")
	}
}

func TestTraceRecordReplayPublicAPI(t *testing.T) {
	var buf bytes.Buffer
	n, err := RecordTrace(&buf, "mcf", 5, 10_000)
	if err != nil || n != 10_000 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	rd, err := OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Profile() != "mcf" {
		t.Fatalf("profile = %q", rd.Profile())
	}
	count := 0
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
		count++
	}
	if count != 10_000 || rd.Err() != nil {
		t.Fatalf("replayed %d records, err=%v", count, rd.Err())
	}
	if _, err := RecordTrace(&buf, "nope", 1, 10); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// nopMonitor is a minimal user-defined monitor: it watches nothing and
// filters everything, proving the custom-monitor plumbing end to end.
type nopMonitor struct{ events uint64 }

func (m *nopMonitor) Name() string      { return "Nop" }
func (m *nopMonitor) Kind() MonitorKind { return MemoryTracking }
func (m *nopMonitor) TracksStack() bool { return false }
func (m *nopMonitor) Monitored(in Instr) bool {
	return in.Op == OpLoad && !in.Stack
}
func (m *nopMonitor) EventOf(in Instr, seq uint64) Event {
	m.events++
	return Event{ID: 1, Kind: EvInstr, Op: in.Op, Addr: in.Addr, Dest: in.Dest, Seq: seq}
}
func (m *nopMonitor) Init(st *MetadataState) {}
func (m *nopMonitor) Program(p Programmer) error {
	if err := p.SetInvariant(0, 0); err != nil {
		return err
	}
	return p.SetEntry(1, Entry{
		S1: OperandRule{Valid: true, Mem: true, MDBytes: 1, Mask: 0xFF, INVid: 0},
		CC: true,
	})
}
func (m *nopMonitor) Handle(ev Event, st *MetadataState, hc HandleCtx) HandleResult {
	return HandleResult{Cost: 2, Class: ClassCC}
}
func (m *nopMonitor) Finalize(st *MetadataState) []Report { return nil }

func TestRunWithCustomMonitor(t *testing.T) {
	mon := &nopMonitor{}
	out, err := Exec(context.Background(), Spec{Benchmark: "hmmer", Seed: 1, Instrs: 40_000}, WithMonitor(mon))
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if mon.events == 0 {
		t.Fatal("custom monitor saw no events")
	}
	if res.Filter.FilterRatio() < 0.99 {
		t.Fatalf("everything-clean monitor filtered only %.3f", res.Filter.FilterRatio())
	}
	if res.Slowdown > 1.6 {
		t.Fatalf("filter-everything monitor slowed the app %.2fx", res.Slowdown)
	}
}
