package main

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from the current flag mapping")

// identityFlags spells golden runs as fadesim command lines. A name shared
// with the fadeserve golden table (internal/serve/testdata/submit.golden)
// is the same run and must hash the same as that POST body.
var identityFlags = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"seed-7", []string{"-seed", "7"}},
	{"instrs", []string{"-bench", "mcf", "-monitor", "AddrCheck", "-instrs", "50000"}},
	{"accel-none", []string{"-accel", "none"}},
	{"accel-blocking", []string{"-accel", "blocking"}},
	{"accel-fade", []string{"-accel", "fade"}},
	{"core-inorder", []string{"-bench", "bzip", "-monitor", "TaintCheck", "-core", "inorder"}},
	{"core-2way", []string{"-bench", "bzip", "-monitor", "TaintCheck", "-core", "2way"}},
	{"core-4way", []string{"-bench", "bzip", "-monitor", "TaintCheck", "-core", "4way"}},
	{"cmp-4", []string{"-app-cores", "4"}},
	{"cmp-4x2", []string{"-bench", "ocean", "-monitor", "AtomCheck", "-app-cores", "4", "-mon-cores", "2"}},
	{"queues", []string{"-evq", "64", "-ufq", "8"}},
	{"timeline", []string{"-timeline-every", "5000"}},
	{"no-fast-forward", []string{"-fast-forward=false"}},
	{"check", []string{"-check"}},
	{"limits-cycles", []string{"-max-cycles", "900000"}},
	{"limits-wall", []string{"-wall-clock", "1500ms"}},
	{"fault-seed", []string{"-fault-seed", "3"}},
	{"fault-stall-none", []string{"-fault-stall", "none"}},
	{"fault-stall-mild", []string{"-fault-stall", "mild"}},
	{"fault-stall-moderate", []string{"-fault-stall", "moderate"}},
	{"fault-stall-severe", []string{"-fault-stall", "severe"}},
	{"fault-meq", []string{"-fault-meq", "0.25"}},
	{"fault-ufq", []string{"-fault-ufq", "0.5"}},
	{"fault-drop", []string{"-fault-drop", "0.001"}},
	{"fault-corrupt", []string{"-fault-corrupt", "20000"}},
	{"fault-all", []string{"-seed", "5", "-check", "-fault-seed", "9", "-fault-stall", "severe",
		"-fault-meq", "0.25", "-fault-ufq", "0.5", "-fault-drop", "0.001", "-fault-corrupt", "20000"}},
	{"everything", []string{"-bench", "ocean", "-monitor", "AtomCheck", "-accel", "blocking", "-core", "2way",
		"-app-cores", "2", "-mon-cores", "1", "-seed", "11", "-instrs", "80000", "-evq", "16", "-ufq", "4",
		"-timeline-every", "10000", "-fast-forward=false", "-max-cycles", "40000000", "-wall-clock", "1m",
		"-fault-stall", "mild", "-fault-drop", "0.01"}},

	// fadesim-only knobs.
	{"sim-seed-0", []string{"-seed", "0"}},
	{"sim-topology-two", []string{"-topology", "two"}},
	{"sim-cmp-1", []string{"-app-cores", "1"}},
	{"sim-mdcache", []string{"-mdcache", "2048"}},
	{"sim-warmup", []string{"-warmup", "50000"}},
	{"sim-inject", []string{"-bench", "omnet", "-inject-leaks", "0.3", "-inject-wild", "0.5"}},
	{"sim-timeline-sink", []string{"-timeline", "out.jsonl"}},
	{"sim-sinks", []string{"-metrics", "m.prom", "-trace", "t.json", "-trace-cap", "64"}},
}

// TestFlagIdentityGolden pins the canonical hash of every golden command
// line, and checks that each run shared with the fadeserve golden table
// hashes exactly as its POST body does.
func TestFlagIdentityGolden(t *testing.T) {
	serve, err := readGolden(filepath.Join("..", "..", "internal", "serve", "testdata", "submit.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, c := range identityFlags {
		s, err := specFromFlags(c.args)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := s.HashString()
		if want, ok := serve[c.name]; ok && h != want {
			t.Errorf("%s: fadesim hash %s, fadeserve hash %s", c.name, h, want)
		}
		lines = append(lines, c.name+" "+h)
	}
	path := filepath.Join("testdata", "flags.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if len(want) != len(lines) {
		t.Errorf("golden file has %d entries, table has %d", len(want), len(lines))
	}
	for _, l := range lines {
		name, hash, _ := strings.Cut(l, " ")
		if want[name] != hash {
			t.Errorf("%s: hash %s, golden %s", name, hash, want[name])
		}
	}
}

// TestFlagErrors: unknown enum and fault names are rejected.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-accel", "warp"}, {"-core", "8way"}, {"-topology", "ring"}, {"-fault-stall", "apocalyptic"},
	} {
		if _, err := specFromFlags(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// readGolden parses a "name hash" golden file.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, hash, ok := strings.Cut(sc.Text(), " "); ok {
			m[name] = hash
		}
	}
	return m, sc.Err()
}
