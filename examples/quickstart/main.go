// Quickstart: run one benchmark under one monitor, with and without FADE,
// and print the headline numbers of the paper — the slowdown reduction and
// the filtering ratio.
package main

import (
	"context"
	"fmt"
	"log"

	"fade"
)

func main() {
	const bench, mon = "astar", "MemLeak"

	ctx := context.Background()

	// Unaccelerated: every monitored event is handled in software on the
	// second hardware thread.
	spec := fade.Spec{Benchmark: bench, Monitor: mon, Accel: fade.AccelNone, Seed: 1}
	out, err := fade.Exec(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	unacc := out.Result

	// FADE: the accelerator filters the common case; software sees only
	// unfilterable events.
	spec.Accel = fade.AccelFADE
	if out, err = fade.Exec(ctx, spec); err != nil {
		log.Fatal(err)
	}
	accel := out.Result

	fmt.Printf("%s under %s (single-core dual-threaded, 4-way OoO):\n\n", bench, mon)
	fmt.Printf("  unaccelerated slowdown: %.2fx (%d handlers in software)\n",
		unacc.Slowdown, unacc.HandlersRun)
	fmt.Printf("  FADE slowdown:          %.2fx (%d handlers in software)\n",
		accel.Slowdown, accel.HandlersRun)
	fmt.Printf("  filtering efficiency:   %.1f%% of %d instruction events\n",
		100*accel.Filter.FilterRatio(), accel.Filter.InstrEvents)
	fmt.Printf("  speedup from FADE:      %.2fx\n", unacc.Slowdown/accel.Slowdown)
}
