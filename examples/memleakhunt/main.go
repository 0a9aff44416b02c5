// Memleakhunt: demonstrate MemLeak's reference-counting leak detection on a
// program that deliberately drops allocations, and show that FADE
// acceleration does not change what the monitor finds — only how fast the
// application runs while being monitored.
package main

import (
	"context"
	"fmt"
	"log"

	"fade"
)

func main() {
	const bench = "omnet" // allocation-heavy benchmark

	// Inject leaks: 30% of would-be frees instead drop the allocation's
	// last reference without freeing it.
	inject := &fade.Inject{LeakFrac: 0.30}

	ctx := context.Background()
	spec := fade.Spec{Benchmark: bench, Monitor: "MemLeak", Seed: 1, Instrs: 300_000, Inject: inject}

	out, err := fade.Exec(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	accel := out.Result
	spec.Accel = fade.AccelNone
	if out, err = fade.Exec(ctx, spec); err != nil {
		log.Fatal(err)
	}
	soft := out.Result

	fmt.Printf("MemLeak on %s with injected leaks:\n\n", bench)
	fmt.Printf("  software-only: %3d leak reports, slowdown %.2fx\n", countLeaks(soft.Reports), soft.Slowdown)
	fmt.Printf("  with FADE:     %3d leak reports, slowdown %.2fx\n", countLeaks(accel.Reports), accel.Slowdown)
	fmt.Printf("\nfirst few reports:\n")
	for i, r := range accel.Reports {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(accel.Reports)-5)
			break
		}
		fmt.Printf("  %s\n", r)
	}
	if countLeaks(soft.Reports) != countLeaks(accel.Reports) {
		log.Fatal("BUG: acceleration changed the monitor's findings")
	}
	fmt.Println("\nFADE accelerated monitoring without changing detection results.")
}

func countLeaks(reports []fade.Report) int {
	n := 0
	for _, r := range reports {
		if r.Kind == "memory-leak" {
			n++
		}
	}
	return n
}
