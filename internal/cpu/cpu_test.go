package cpu

import (
	"testing"

	"fade/internal/core"
	"fade/internal/isa"
	"fade/internal/metadata"
	"fade/internal/monitor"
	"fade/internal/queue"
	"fade/internal/trace"
)

func TestKindAccessors(t *testing.T) {
	if len(Kinds()) != 3 {
		t.Fatalf("kinds = %v", Kinds())
	}
	if InOrder.Width() != 1 || OoO2.Width() != 2 || OoO4.Width() != 4 {
		t.Fatal("widths wrong")
	}
	for _, k := range Kinds() {
		if k.String() == "" {
			t.Errorf("kind %d empty name", k)
		}
		if k.HandlerIPC() <= 0 || k.MemOverlap() <= 0 || k.HazardScale() <= 0 {
			t.Errorf("kind %v has non-positive model constants", k)
		}
	}
	// Monotonicity: wider cores run handlers faster and hide more.
	if !(InOrder.HandlerIPC() < OoO2.HandlerIPC() && OoO2.HandlerIPC() < OoO4.HandlerIPC()) {
		t.Fatal("handler IPC not monotone")
	}
	if !(InOrder.MemOverlap() > OoO2.MemOverlap() && OoO2.MemOverlap() > OoO4.MemOverlap()) {
		t.Fatal("memory overlap not monotone")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
}

func runAppCore(t *testing.T, kind Kind, bench string, instrs uint64) (*AppCore, uint64) {
	t.Helper()
	prof, ok := trace.Lookup(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	g := trace.New(prof, 1, instrs)
	app := NewAppCore(kind, prof, g, nil, nil)
	var cycles uint64
	for !app.Done() {
		app.TickShare(1.0)
		cycles++
		if cycles > instrs*100 {
			t.Fatal("app core did not finish")
		}
	}
	return app, cycles
}

func TestAppCoreBaselineIPCBands(t *testing.T) {
	// Calibration bands for the 4-way OoO core (DESIGN.md §5): the suite
	// spreads from memory-bound mcf (lowest) to bzip/hmmer (highest).
	bands := map[string][2]float64{
		"astar": {0.7, 1.4},
		"bzip":  {1.3, 2.2},
		"gcc":   {0.8, 1.5},
		"gobmk": {0.8, 1.6},
		"hmmer": {1.0, 1.8},
		"libq":  {0.6, 1.5},
		"mcf":   {0.2, 0.6},
		"omnet": {0.7, 1.4},
	}
	for bench, band := range bands {
		app, cycles := runAppCore(t, OoO4, bench, 100_000)
		ipc := float64(app.Instrs()) / float64(cycles)
		if ipc < band[0] || ipc > band[1] {
			t.Errorf("%s IPC %.2f outside [%v,%v]", bench, ipc, band[0], band[1])
		}
	}
}

func TestAppCoreKindOrdering(t *testing.T) {
	// Wider cores retire the same program faster.
	_, c1 := runAppCore(t, InOrder, "astar", 60_000)
	_, c2 := runAppCore(t, OoO2, "astar", 60_000)
	_, c4 := runAppCore(t, OoO4, "astar", 60_000)
	if !(c1 > c2 && c2 > c4) {
		t.Fatalf("cycle ordering violated: in-order %d, 2-way %d, 4-way %d", c1, c2, c4)
	}
	// The paper's observation: in-order produces up to ~2x fewer events
	// per cycle; allow 1.5x-4x.
	ratio := float64(c1) / float64(c4)
	if ratio < 1.5 || ratio > 4.5 {
		t.Fatalf("in-order/4-way cycle ratio %.2f out of band", ratio)
	}
}

func TestAppCoreDeterminism(t *testing.T) {
	_, a := runAppCore(t, OoO4, "gcc", 50_000)
	_, b := runAppCore(t, OoO4, "gcc", 50_000)
	if a != b {
		t.Fatalf("same config produced %d and %d cycles", a, b)
	}
}

func TestAppCoreSMTShareSlowsProgress(t *testing.T) {
	prof, _ := trace.Lookup("astar")
	full := NewAppCore(OoO4, prof, trace.New(prof, 1, 30_000), nil, nil)
	half := NewAppCore(OoO4, prof, trace.New(prof, 1, 30_000), nil, nil)
	var cf, ch uint64
	for !full.Done() {
		full.TickShare(1.0)
		cf++
	}
	for !half.Done() {
		half.TickShare(0.5)
		ch++
	}
	if ch < cf*3/2 {
		t.Fatalf("half share barely slower: full %d, half %d", cf, ch)
	}
}

func TestAppCoreBackpressure(t *testing.T) {
	prof, _ := trace.Lookup("bzip") // monitored IPC > 1 under MemLeak
	mon, _ := monitor.New("MemLeak", 1)
	evq := queue.NewBounded[isa.Event](8)
	app := NewAppCore(OoO4, prof, trace.New(prof, 1, 20_000), mon, evq)
	var cycles uint64
	for !app.Done() && cycles < 2_000_000 {
		app.TickShare(1.0)
		if cycles%2 == 0 {
			evq.Pop() // slow consumer: half an event per cycle
		}
		cycles++
	}
	if app.BackpressureCycles() == 0 {
		t.Fatal("no backpressure against a slow consumer")
	}
	if evq.MaxLen() > 8 {
		t.Fatalf("queue exceeded capacity: %d", evq.MaxLen())
	}
	if app.MonitoredEvents() == 0 {
		t.Fatal("no monitored events produced")
	}
}

func TestAppCoreEventSeqMonotonic(t *testing.T) {
	prof, _ := trace.Lookup("astar")
	mon, _ := monitor.New("AddrCheck", 1)
	evq := queue.NewBounded[isa.Event](queue.Unbounded)
	app := NewAppCore(OoO4, prof, trace.New(prof, 1, 20_000), mon, evq)
	for !app.Done() {
		app.TickShare(1.0)
	}
	var prev uint64
	first := true
	for {
		ev, ok := evq.Pop()
		if !ok {
			break
		}
		if !first && ev.Seq != prev+1 {
			t.Fatalf("sequence gap: %d after %d", ev.Seq, prev)
		}
		prev = ev.Seq
		first = false
	}
}

func TestMonitorCoreDirectProcessesEverything(t *testing.T) {
	mon, _ := monitor.New("AddrCheck", 1)
	md := metadata.NewState()
	mon.Init(md)
	evq := queue.NewBounded[isa.Event](64)
	mc := NewMonitorCoreDirect(OoO4, mon, md, evq)

	for i := 0; i < 10; i++ {
		evq.Push(isa.Event{Kind: isa.EvInstr, Op: isa.OpLoad, Addr: 0x1000_0000,
			Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1, Seq: uint64(i)})
	}
	cycles := 0
	for mc.Busy() {
		mc.TickShare(1.0)
		cycles++
		if cycles > 10_000 {
			t.Fatal("monitor core did not drain")
		}
	}
	if mc.Handled() != 10 {
		t.Fatalf("handled = %d", mc.Handled())
	}
	if mc.BusyCycles() == 0 {
		t.Fatal("busy cycles not counted")
	}
	// AddrCheck fast path is 5 instructions at IPC 2.5: 2 cycles each.
	if cycles < 10 || cycles > 40 {
		t.Fatalf("drain took %d cycles", cycles)
	}
}

func TestMonitorCoreSignalsCompletion(t *testing.T) {
	mon, _ := monitor.New("AddrCheck", 1)
	md := metadata.NewState()
	mon.Init(md)
	evq := queue.NewBounded[isa.Event](4)
	ufq := queue.NewBounded[core.Unfiltered](16)
	fu := core.New(core.DefaultConfig(core.NonBlocking), md, evq, ufq, nil)
	mon.Program(core.ProgrammerFor(fu))
	mc := NewMonitorCoreFADE(OoO4, mon, md, ufq, fu, false)

	ufq.Push(core.Unfiltered{Ev: isa.Event{Kind: isa.EvHighLevel, Op: isa.OpMalloc,
		Addr: 0x4000_0000, Size: 64, Seq: 3}})
	// Mirror the accelerator-side bookkeeping for the forwarded event.
	// (In a full system the FU pushes and counts; here we emulate it.)
	for i := 0; i < 200 && mc.Busy(); i++ {
		mc.TickShare(1.0)
	}
	if mc.Handled() != 1 {
		t.Fatalf("handled = %d", mc.Handled())
	}
	if md.Mem.Load(0x4000_0000) == 0 {
		t.Fatal("handler effects not applied")
	}
}

func TestMonitorCoreClassAccounting(t *testing.T) {
	mon, _ := monitor.New("MemCheck", 1)
	md := metadata.NewState()
	mon.Init(md)
	evq := queue.NewBounded[isa.Event](16)
	mc := NewMonitorCoreDirect(OoO4, mon, md, evq)
	evq.Push(isa.Event{Kind: isa.EvStackCall, Addr: 0xE0000000, Size: 64, Seq: 0})
	for mc.Busy() {
		mc.TickShare(1.0)
	}
	if mc.ClassInstr()[monitor.ClassStack] == 0 {
		t.Fatal("stack class instructions not recorded")
	}
}

func TestMonitorCoreShareScalesDuration(t *testing.T) {
	mkRun := func(share float64) int {
		mon, _ := monitor.New("AtomCheck", 4)
		md := metadata.NewState()
		mon.Init(md)
		evq := queue.NewBounded[isa.Event](16)
		mc := NewMonitorCoreDirect(OoO4, mon, md, evq)
		evq.Push(isa.Event{Kind: isa.EvInstr, Op: isa.OpLoad, Addr: 0x4000_0000,
			Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1, Thread: 1, Seq: 0})
		cycles := 0
		for mc.Busy() {
			mc.TickShare(share)
			cycles++
		}
		return cycles
	}
	full := mkRun(1.0)
	half := mkRun(0.5)
	if half < full*3/2 {
		t.Fatalf("half-share handler barely slower: %d vs %d", half, full)
	}
}
