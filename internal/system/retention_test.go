package system

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"fade/internal/fault"
	"fade/internal/stats"
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

// TestFinishedHistogramsKeepOnlyOccupiedBuckets: a finished cell's
// histograms keep their occupied buckets alone, at most 16 bytes each, and
// no dense array or map. Sweeps hold every Result until their table is
// built, and a run's dense arrays hold mostly empty slots. The cell is a
// fault-sweep one: invariant-checked, under moderate monitor stalls.
func TestFinishedHistogramsKeepOnlyOccupiedBuckets(t *testing.T) {
	spec := defaultSpec("MemLeak")
	spec.Instrs = 20_000
	spec.Faults, _ = fault.StallSeverity("moderate")
	spec.CheckInvariants = true
	r, err := run("astar", spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*stats.Histogram{
		"EvqOccupancy":              r.EvqOccupancy,
		"Filter.UnfilteredDistance": r.Filter.UnfilteredDistance,
		"Filter.BurstSizes":         r.Filter.BurstSizes,
	} {
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var wire struct{ Buckets []json.RawMessage }
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatal(err)
		}
		occupied := len(wire.Buckets)
		if occupied == 0 {
			t.Fatalf("%s is empty: the cell exercises nothing", name)
		}
		// Every slice and map a Histogram holds, whatever its fields.
		var kept uintptr
		v := reflect.ValueOf(h).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice:
				kept += uintptr(f.Cap()) * f.Type().Elem().Size()
			case reflect.Map:
				if !f.IsNil() {
					t.Errorf("%s keeps a map (%s)", name, v.Type().Field(i).Name)
				}
			}
		}
		t.Logf("%s: %d occupied buckets, %d bytes kept", name, occupied, kept)
		if kept > uintptr(16*occupied) {
			t.Errorf("%s keeps %d bytes for %d occupied buckets, want at most %d", name, kept, occupied, 16*occupied)
		}
	}
}
