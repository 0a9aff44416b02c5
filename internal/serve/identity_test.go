package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fade/internal/runspec"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/submit.golden from the current request mapping")

// identityBodies is the golden table of POST /v1/runs bodies: accel, core,
// CMP, limits and every fault knob, including seed 0. cmd/fadesim spells
// the same runs as flag sets under the same names and must hash equal.
var identityBodies = []struct{ name, body string }{
	{"default", `{"benchmark":"astar","monitor":"MemLeak"}`},
	{"seed-0", `{"benchmark":"astar","monitor":"MemLeak","seed":0}`},
	{"seed-7", `{"benchmark":"astar","monitor":"MemLeak","seed":7}`},
	{"instrs", `{"benchmark":"mcf","monitor":"AddrCheck","instrs":50000}`},
	{"accel-none", `{"benchmark":"astar","monitor":"MemLeak","accel":"none"}`},
	{"accel-blocking", `{"benchmark":"astar","monitor":"MemLeak","accel":"blocking"}`},
	{"accel-fade", `{"benchmark":"astar","monitor":"MemLeak","accel":"fade"}`},
	{"core-inorder", `{"benchmark":"bzip","monitor":"TaintCheck","core":"inorder"}`},
	{"core-2way", `{"benchmark":"bzip","monitor":"TaintCheck","core":"2way"}`},
	{"core-4way", `{"benchmark":"bzip","monitor":"TaintCheck","core":"4way"}`},
	{"cmp-1", `{"benchmark":"astar","monitor":"MemLeak","app_cores":1}`},
	{"cmp-4", `{"benchmark":"astar","monitor":"MemLeak","app_cores":4}`},
	{"cmp-4x2", `{"benchmark":"ocean","monitor":"AtomCheck","app_cores":4,"mon_cores":2}`},
	{"queues", `{"benchmark":"astar","monitor":"MemLeak","event_queue_cap":64,"unfiltered_cap":8}`},
	{"timeline", `{"benchmark":"astar","monitor":"MemLeak","timeline_every":5000}`},
	{"no-fast-forward", `{"benchmark":"astar","monitor":"MemLeak","fast_forward":false}`},
	{"check", `{"benchmark":"astar","monitor":"MemLeak","check_invariants":true}`},
	{"limits-cycles", `{"benchmark":"astar","monitor":"MemLeak","limits":{"max_cycles":900000}}`},
	{"limits-wall", `{"benchmark":"astar","monitor":"MemLeak","limits":{"wall_clock_ms":1500}}`},
	{"fault-seed", `{"benchmark":"astar","monitor":"MemLeak","faults":{"seed":3}}`},
	{"fault-stall-none", `{"benchmark":"astar","monitor":"MemLeak","faults":{"stall":"none"}}`},
	{"fault-stall-mild", `{"benchmark":"astar","monitor":"MemLeak","faults":{"stall":"mild"}}`},
	{"fault-stall-moderate", `{"benchmark":"astar","monitor":"MemLeak","faults":{"stall":"moderate"}}`},
	{"fault-stall-severe", `{"benchmark":"astar","monitor":"MemLeak","faults":{"stall":"severe"}}`},
	{"fault-meq", `{"benchmark":"astar","monitor":"MemLeak","faults":{"meq_pressure":0.25}}`},
	{"fault-ufq", `{"benchmark":"astar","monitor":"MemLeak","faults":{"ufq_pressure":0.5}}`},
	{"fault-drop", `{"benchmark":"astar","monitor":"MemLeak","faults":{"drop_rate":0.001}}`},
	{"fault-corrupt", `{"benchmark":"astar","monitor":"MemLeak","faults":{"corrupt_gap":20000}}`},
	{"fault-all", `{"benchmark":"astar","monitor":"MemLeak","seed":5,"check_invariants":true,"faults":{"seed":9,"stall":"severe","meq_pressure":0.25,"ufq_pressure":0.5,"drop_rate":0.001,"corrupt_gap":20000}}`},
	{"everything", `{"benchmark":"ocean","monitor":"AtomCheck","accel":"blocking","core":"2way","app_cores":2,"mon_cores":1,"seed":11,"instrs":80000,"event_queue_cap":16,"unfiltered_cap":4,"timeline_every":10000,"fast_forward":false,"limits":{"max_cycles":40000000,"wall_clock_ms":60000},"faults":{"stall":"mild","drop_rate":0.01}}`},
}

// decodeBody decodes a POST /v1/runs body exactly as the handler does.
func decodeBody(b []byte) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// TestSubmitIdentityGolden pins the canonical hash of every golden body.
// The hash is the key a run's result is cached under, so a change here
// silently invalidates every stored result.
func TestSubmitIdentityGolden(t *testing.T) {
	var lines []string
	for _, c := range identityBodies {
		req, err := decodeBody([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s, err := req.Spec(400_000, DefaultLimits)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines = append(lines, c.name+" "+s.HashString())
	}
	checkGolden(t, filepath.Join("testdata", "submit.golden"), lines, *updateIdentity)
}

// checkGolden compares "name hash" lines with a golden file, or rewrites
// the file when update is set.
func checkGolden(t *testing.T, path string, lines []string, update bool) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
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
		name, hash, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, fmt.Errorf("malformed golden line %q", sc.Text())
		}
		m[name] = hash
	}
	return m, sc.Err()
}

// FuzzSubmitRequest: no POST body makes the request mapping panic, every
// accepted spec passes Validate, and its canonical bytes survive a JSON
// round trip. The golden bodies seed the corpus, so plain go test runs
// them.
func FuzzSubmitRequest(f *testing.F) {
	for _, c := range identityBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeBody(body)
		if err != nil {
			return
		}
		s, err := req.Spec(400_000, DefaultLimits)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v (body %s)", err, body)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back runspec.Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.CanonicalBytes(), s.CanonicalBytes()) {
			t.Fatalf("canonical bytes changed across JSON:\n%s\n%s", s.CanonicalBytes(), back.CanonicalBytes())
		}
	})
}
