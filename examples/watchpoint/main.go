// Watchpoint: a complete USER-DEFINED monitor built on the public API,
// demonstrating the "programmable" in FADE's title. The tool watches a set
// of memory regions and reports every store into them — an unlimited-
// watchpoint debugger in the style of iWatcher (the paper's related work).
//
// The FADE programming is a single clean-check rule: stores whose target
// word is unwatched (metadata 0) are filtered in hardware; only stores that
// hit a watched word reach the software handler. On a typical workload the
// accelerator elides >99% of the monitoring work while every watched write
// is still caught.
package main

import (
	"context"
	"fmt"
	"log"

	"fade"
)

// watchedByte marks a watched word in critical metadata.
const watchedByte = 1

// Watchpoint implements fade.Monitor.
type Watchpoint struct {
	regions []region
	hits    []fade.Report
}

type region struct{ base, size uint32 }

// Watch adds a region to watch. Call before the simulation starts.
func (w *Watchpoint) Watch(base, size uint32) {
	w.regions = append(w.regions, region{base, size})
}

// Name implements fade.Monitor.
func (w *Watchpoint) Name() string { return "Watchpoint" }

// Kind implements fade.Monitor: only memory instructions are examined.
func (w *Watchpoint) Kind() fade.MonitorKind { return fade.MemoryTracking }

// Monitored selects stores — the only events that can trip a write
// watchpoint.
func (w *Watchpoint) Monitored(in fade.Instr) bool {
	return in.Op == fade.OpStore
}

// EventOf implements fade.Monitor.
func (w *Watchpoint) EventOf(in fade.Instr, seq uint64) fade.Event {
	return fade.Event{
		ID: 1, Kind: fade.EvInstr, Op: in.Op,
		PC: in.PC, Addr: in.Addr, Src1: in.Src1, Src2: in.Src2, Dest: in.Dest,
		Size: in.Size, Thread: in.Thread, Seq: seq,
	}
}

// TracksStack implements fade.Monitor: frames are never watched.
func (w *Watchpoint) TracksStack() bool { return false }

// Init marks the watched regions in critical metadata.
func (w *Watchpoint) Init(st *fade.MetadataState) {
	for _, r := range w.regions {
		st.Mem.SetRange(r.base, r.size, watchedByte)
	}
}

// Program installs the filtering rule: a store is filterable when the
// target word's metadata equals the "unwatched" invariant.
func (w *Watchpoint) Program(p fade.Programmer) error {
	if err := p.SetInvariant(0, 0); err != nil { // unwatched
		return err
	}
	return p.SetEntry(1, fade.Entry{
		D:         fade.OperandRule{Valid: true, Mem: true, MDBytes: 1, Mask: 0xFF, INVid: 0},
		CC:        true,
		HandlerPC: 0x7000,
	})
}

// Handle implements fade.Monitor: unfiltered stores hit a watched word.
func (w *Watchpoint) Handle(ev fade.Event, st *fade.MetadataState, hc fade.HandleCtx) fade.HandleResult {
	if ev.Kind != fade.EvInstr {
		return fade.HandleResult{Cost: 4, Class: fade.ClassHigh}
	}
	var md byte
	if hc.MDValid {
		md = hc.D
	} else {
		md = st.Mem.Load(ev.Addr)
	}
	if md != watchedByte {
		return fade.HandleResult{Cost: 5, Class: fade.ClassCC}
	}
	rep := fade.Report{
		Tool: w.Name(), Kind: "watchpoint-hit", PC: ev.PC, Addr: ev.Addr,
		Seq: ev.Seq, Thread: ev.Thread,
		Detail: fmt.Sprintf("store to watched word %#x", ev.Addr),
	}
	w.hits = append(w.hits, rep)
	return fade.HandleResult{Cost: 60, Class: fade.ClassSlow, Reports: []fade.Report{rep}}
}

// Finalize implements fade.Monitor.
func (w *Watchpoint) Finalize(st *fade.MetadataState) []fade.Report { return nil }

func main() {
	// Watch two slices of the global region.
	wp := &Watchpoint{}
	wp.Watch(0x1000_0040, 64)
	wp.Watch(0x1000_0400, 128)

	out, err := fade.Exec(context.Background(), fade.Spec{Benchmark: "gobmk", Seed: 1, Instrs: 200_000}, fade.WithMonitor(wp))
	if err != nil {
		log.Fatal(err)
	}
	res := out.Result

	fmt.Printf("custom Watchpoint monitor on gobmk:\n\n")
	fmt.Printf("  monitored stores:     %d\n", res.MonitoredEvents)
	fmt.Printf("  filtered in hardware: %.2f%%\n", 100*res.Filter.FilterRatio())
	fmt.Printf("  watchpoint hits:      %d\n", len(wp.hits))
	fmt.Printf("  slowdown:             %.2fx\n", res.Slowdown)
	if len(wp.hits) > 0 {
		fmt.Printf("\nfirst hit: %s\n", wp.hits[0])
	}
	if len(wp.hits) == 0 {
		log.Fatal("expected at least one hit on the hot globals")
	}
}
