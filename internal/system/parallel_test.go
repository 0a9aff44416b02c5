package system

import (
	"context"
	"sync"
	"testing"

	"fade/internal/runspec"
	"fade/internal/trace"
)

// TestBaselineSingleFlight is the thundering-herd regression test: N
// concurrent runs sharing one (profile, core, seed, length) baseline key
// must simulate the unmonitored baseline exactly once — the other workers
// wait on the store's single flight instead of redundantly re-simulating.
func TestBaselineSingleFlight(t *testing.T) {
	prof, ok := trace.Lookup("astar")
	if !ok {
		t.Fatal("astar profile missing")
	}
	// A seed no other test uses, so the cache cannot already hold the key.
	spec := runspec.Spec{Core: runspec.Core4Way, Seed: 0xB15E11FE, Instrs: 20_000, MaxCycles: 2_000_000}

	const workers = 8
	before := baselineStore.Stats().Misses
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = runBaseline(context.Background(), prof, spec)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := baselineStore.Stats().Misses - before; got != 1 {
		t.Fatalf("%d concurrent runBaseline calls performed %d simulations, want 1", workers, got)
	}

	// The cached value is served without further simulation.
	if _, err := runBaseline(context.Background(), prof, spec); err != nil {
		t.Fatal(err)
	}
	if got := baselineStore.Stats().Misses - before; got != 1 {
		t.Fatalf("cache hit re-simulated the baseline (%d sims)", got)
	}
}

// TestConcurrentRunsRaceClean drives full monitored simulations (trace
// generation, filtering unit, monitor, stats) from many goroutines; under
// -race this verifies the per-run state is actually goroutine-local and the
// only shared path (the baseline cache) is synchronized.
func TestConcurrentRunsRaceClean(t *testing.T) {
	benches := []string{"astar", "mcf"}
	monitors := []string{"AddrCheck", "MemLeak"}
	var wg sync.WaitGroup
	errCh := make(chan error, len(benches)*len(monitors)*2)
	for _, bench := range benches {
		for _, mon := range monitors {
			for rep := 0; rep < 2; rep++ {
				bench, mon := bench, mon
				wg.Add(1)
				go func() {
					defer wg.Done()
					spec := defaultSpec(mon)
					spec.Instrs = 15_000
					spec.Seed = 7
					if _, err := run(bench, spec); err != nil {
						errCh <- err
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
