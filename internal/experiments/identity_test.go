package experiments

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateCells = flag.Bool("update", false, "rewrite testdata/cells.golden from the current cell enumeration")

// cellOptionSets are the option sets the cell golden enumerates: the
// fadebench defaults, and every spec-shaping knob set at once.
var cellOptionSets = []struct {
	name string
	o    Options
}{
	{"default", Options{}},
	{"knobs", Options{Instrs: 50_000, Seed: 7, TimelineEvery: 5000, AppCores: 2, MonCores: 1,
		CheckInvariants: true, FastForward: true}},
}

// TestCellIdentityGolden pins the canonical hash of every cell of every
// experiment. The hashes are the cache keys of every stored sweep, so a
// change here silently invalidates every disk cache.
func TestCellIdentityGolden(t *testing.T) {
	var got []string
	for _, set := range cellOptionSets {
		for _, id := range IDs() {
			cells, err := CellsFor(id, set.o)
			if err != nil {
				t.Fatalf("%s/%s: %v", set.name, id, err)
			}
			for _, c := range cells {
				got = append(got, set.name+" "+id+" "+c.Label+" "+c.Spec.HashString())
			}
		}
	}
	path := filepath.Join("testdata", "cells.golden")
	if *updateCells {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
