package experiments

import (
	"context"
	"testing"

	"fade/internal/rcache"
	"fade/internal/system"
)

// TestCacheResume is the resume acceptance check: a sweep executed against
// a disk cache, then re-run through a fresh cache over the same directory,
// must rebuild the identical table with zero simulations (every cell a
// cache hit).
func TestCacheResume(t *testing.T) {
	dir := t.TempDir()
	o := tiny()

	plain, err := Fig2bc(o)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := rcache.New(rcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	oc := o
	oc.Cache = cold
	ct, err := Fig2bc(oc)
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
	wt, err := Fig2bc(ow)
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
	plain, err := Fig11c(o)
	if err != nil {
		t.Fatal(err)
	}
	c := rcache.NewMem(256)
	oc := o
	oc.Cache = c
	if _, err := Fig11c(oc); err != nil { // cold fill
		t.Fatal(err)
	}
	warmTbl, err := Fig11c(oc) // all hits
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

// TestShardPartition: shards 0..n-1 of an experiment are disjoint and
// their union is the full cell set, so N workers priming one shard each
// cover every cell exactly once.
func TestShardPartition(t *testing.T) {
	o := tiny()
	cells, err := CellsFor("fig9", o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	seen := map[string]int{}
	for shard := 0; shard < n; shard++ {
		for _, c := range cells {
			if c.Spec.Shard(n) == shard {
				seen[c.Label]++
			}
		}
	}
	if len(seen) != len(cells) {
		t.Fatalf("shards cover %d of %d cells", len(seen), len(cells))
	}
	for label, count := range seen {
		if count != 1 {
			t.Fatalf("cell %s owned by %d shards", label, count)
		}
	}
}

// TestPrimeThenRun: priming every shard into a shared cache makes the
// subsequent unsharded run a pure cache read.
func TestPrimeThenRun(t *testing.T) {
	o := tiny()
	c := rcache.NewMem(256)
	op := o
	op.Cache = c
	const n = 2
	ran := 0
	for shard := 0; shard < n; shard++ {
		r, total, err := Prime("fig3c", op, shard, n)
		if err != nil {
			t.Fatal(err)
		}
		cells, _ := CellsFor("fig3c", o)
		if total != len(cells) {
			t.Fatalf("Prime total = %d, want %d", total, len(cells))
		}
		ran += r
	}
	cells, _ := CellsFor("fig3c", o)
	if ran != len(cells) {
		t.Fatalf("shards primed %d cells, want %d", ran, len(cells))
	}
	misses := c.Stats().Misses
	tbl, err := ByID("fig3c", op)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != misses {
		t.Fatalf("post-prime run simulated %d cells, want 0", got-misses)
	}
	plain, err := Fig3c(o)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() != plain.String() {
		t.Fatal("primed table differs from direct run")
	}
}

// TestMissing: a primed cell drops out of the missing set, a nil cache
// leaves every cell missing.
func TestMissing(t *testing.T) {
	o := tiny()
	cells, err := CellsFor("fig3c", o)
	if err != nil {
		t.Fatal(err)
	}
	if got := Missing(cells, nil); len(got) != len(cells) {
		t.Fatalf("Missing(nil cache) = %d cells, want all %d", len(got), len(cells))
	}
	c := rcache.NewMem(256)
	if got := Missing(cells, c); len(got) != len(cells) {
		t.Fatalf("Missing(empty cache) = %d cells, want all %d", len(got), len(cells))
	}
	// Prime exactly one cell: only it should drop out.
	op := o
	op.Cache = c
	if _, err := system.ExecSpec(context.Background(), cells[0].Spec, system.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	got := Missing(cells, c)
	if len(got) != len(cells)-1 {
		t.Fatalf("Missing after priming one cell = %d, want %d", len(got), len(cells)-1)
	}
	for _, m := range got {
		if m.Label == cells[0].Label {
			t.Fatalf("primed cell %s still reported missing", m.Label)
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
