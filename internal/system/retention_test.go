package system

import (
	"runtime"
	"testing"
)

// TestResultDoesNotPinMachine guards against a Result keeping its whole
// simulated machine alive (shadow metadata, MD cache, queues) through an
// interior pointer. Sweeps hold every Result until their table is built,
// so whatever one Result retains is multiplied by the cell count.
func TestResultDoesNotPinMachine(t *testing.T) {
	const keep = 6
	const limit = 256 << 10
	spec := defaultSpec("AddrCheck")
	spec.Instrs = 20_000
	if _, err := run("astar", spec); err != nil { // warm process-wide caches
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	kept := make([]*Result, 0, keep)
	for i := 0; i < keep; i++ {
		spec.Seed = uint64(i + 1)
		r, err := run("astar", spec)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, r)
	}
	after := heap()
	runtime.KeepAlive(kept)
	var per uint64
	if after > before {
		per = (after - before) / keep
	}
	t.Logf("retained per Result: %d KB", per>>10)
	if per > limit {
		t.Fatalf("each kept Result retains %d KB of heap, limit %d KB", per>>10, limit>>10)
	}
}
