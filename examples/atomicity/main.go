// Atomicity: demonstrate AtomCheck (AVIO-style) finding unserializable
// access interleavings in a four-thread workload with heavy sharing, and
// compare the single-core and two-core monitoring systems on the same
// workload (the Fig. 11a design-point question).
package main

import (
	"context"
	"fmt"
	"log"

	"fade"
)

func main() {
	const bench = "streamc" // shared center table -> frequent conflicts

	ctx := context.Background()
	spec := fade.Spec{Benchmark: bench, Monitor: "AtomCheck", Seed: 1, Instrs: 300_000}

	out, err := fade.Exec(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	single := out.Result
	// Two-core: the monitor runs on its own core instead of a second
	// hardware thread.
	spec.AppCores, spec.MonCores = 1, 1
	if out, err = fade.Exec(ctx, spec); err != nil {
		log.Fatal(err)
	}
	twoCore := out.Result

	violations := 0
	for _, r := range single.Reports {
		if r.Kind == "atomicity-violation" {
			violations++
		}
	}

	fmt.Printf("AtomCheck on %s (4 threads):\n\n", bench)
	fmt.Printf("  atomicity-violation reports: %d\n", violations)
	fmt.Printf("  partial-filter hit rate:     %.1f%%\n", 100*single.Filter.FilterRatio())
	fmt.Printf("  single-core slowdown:        %.2fx\n", single.Slowdown)
	fmt.Printf("  two-core slowdown:           %.2fx (benefit %.0f%%)\n",
		twoCore.Slowdown, 100*(single.Slowdown/twoCore.Slowdown-1))
	for i, r := range single.Reports {
		if r.Kind == "atomicity-violation" {
			fmt.Printf("\nexample: %s\n", r)
			_ = i
			break
		}
	}
}
