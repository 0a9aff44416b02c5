package fade_test

import (
	"context"
	"fmt"

	"fade"
)

// Running a built-in monitor over a benchmark and reading the headline
// numbers.
func ExampleExec() {
	out, err := fade.Exec(context.Background(), fade.Spec{Benchmark: "astar", Monitor: "AddrCheck", Seed: 1, Instrs: 50_000})
	if err != nil {
		panic(err)
	}
	res := out.Result
	fmt.Println(res.Filter.FilterRatio() > 0.9)
	fmt.Println(res.Slowdown >= 1.0)
	// Output:
	// true
	// true
}

// Driving the accelerator directly: program a clean-check rule, push
// events, observe filtering.
func ExampleNewFilteringUnit() {
	md := fade.NewMetadataState()
	fu, evq, ufq := fade.NewFilteringUnit(false, md)

	fu.Inv.Set(0, 0) // invariant: "clean" metadata is zero
	fu.Table.Set(1, fade.Entry{
		S1: fade.OperandRule{Valid: true, Mem: true, MDBytes: 1, Mask: 0xFF, INVid: 0},
		CC: true,
	})

	md.Mem.Store(0x2000, 1) // one dirty word
	evq.Push(fade.Event{ID: 1, Addr: 0x1000, Seq: 0})
	evq.Push(fade.Event{ID: 1, Addr: 0x2000, Seq: 1})
	for i := 0; i < 60; i++ {
		fu.Tick(uint64(i))
	}

	fmt.Println("filtered:", fu.Stats().Filtered())
	u, _ := ufq.Pop()
	fmt.Println("software sees seq:", u.Ev.Seq)
	// Output:
	// filtered: 1
	// software sees seq: 1
}

// Characterizing a workload's monitoring load (the Section 3 methodology).
func ExampleExec_queueStudy() {
	out, err := fade.Exec(context.Background(), fade.Spec{
		Kind: fade.KindStudy, Benchmark: "mcf", Monitor: "AddrCheck",
		EventQueueCap: fade.UnboundedQueue, Seed: 1, Instrs: 50_000,
	})
	if err != nil {
		panic(err)
	}
	qs := out.Study
	// mcf is memory bound: its monitored IPC is far below one event per
	// cycle, so a single-issue accelerator keeps up easily.
	fmt.Println(qs.MonitoredIPC < 0.5)
	// Output:
	// true
}
