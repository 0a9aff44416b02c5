package experiments

import (
	"testing"

	"fade/internal/rcache"
)

// TestCacheResume is the resume acceptance check: a sweep executed against
// a disk cache, then re-run through a fresh cache over the same directory,
// must rebuild the identical table with zero simulations (every cell a
// cache hit).
func TestCacheResume(t *testing.T) {
	dir := t.TempDir()
	o := tiny()

	plain, err := ByID("fig2bc", o)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := rcache.New(rcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	oc := o
	oc.Cache = cold
	ct, err := ByID("fig2bc", oc)
	if err != nil {
		t.Fatal(err)
	}
	if ct.String() != plain.String() {
		t.Fatalf("cache-on table differs from cache-off:\n--- off\n%s\n--- on\n%s", plain, ct)
	}
	cells, err := CellsFor("fig2bc", o)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Misses != uint64(len(cells)) {
		t.Fatalf("cold run: %d misses, want %d (one per cell)", st.Misses, len(cells))
	}

	// A fresh cache over the same directory simulates nothing.
	warm, err := rcache.New(rcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ow := o
	ow.Cache = warm
	wt, err := ByID("fig2bc", ow)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Misses != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", st.Misses)
	}
	if st.Hits != uint64(len(cells)) {
		t.Fatalf("warm run: %d hits, want %d (one per cell)", st.Hits, len(cells))
	}
	if wt.String() != plain.String() {
		t.Fatalf("resumed table differs:\n--- fresh\n%s\n--- resumed\n%s", plain, wt)
	}
}

// TestCachedFullSystemExperiment covers the full-system path (Result with
// metrics attached) through the cache, including the Cells telemetry.
func TestCachedFullSystemExperiment(t *testing.T) {
	o := tiny()
	plain, err := ByID("fig11c", o)
	if err != nil {
		t.Fatal(err)
	}
	c := rcache.NewMem(256)
	oc := o
	oc.Cache = c
	if _, err := ByID("fig11c", oc); err != nil { // cold fill
		t.Fatal(err)
	}
	warmTbl, err := ByID("fig11c", oc) // all hits
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatal("second run hit nothing")
	}
	if warmTbl.String() != plain.String() {
		t.Fatal("cached table text differs from uncached")
	}
	if len(warmTbl.Cells) != len(plain.Cells) {
		t.Fatalf("cached table attaches %d cells, uncached %d", len(warmTbl.Cells), len(plain.Cells))
	}
	for i := range warmTbl.Cells {
		if warmTbl.Cells[i].Cell != plain.Cells[i].Cell {
			t.Fatalf("cell %d label %q != %q", i, warmTbl.Cells[i].Cell, plain.Cells[i].Cell)
		}
	}
}

// TestCellsForUnknown rejects unknown ids like ByID does.
func TestCellsForUnknown(t *testing.T) {
	if _, err := CellsFor("nope", tiny()); err == nil {
		t.Fatal("unknown id accepted")
	}
	if cells, err := CellsFor("synth", tiny()); err != nil || len(cells) != 0 {
		t.Fatalf("synth cells = %v, %v (want none)", cells, err)
	}
}
