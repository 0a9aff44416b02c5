package runspec

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fade/internal/fault"
	"fade/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/hashes.golden from the current encoding")

// goldenMatrix is the representative spec matrix whose hashes are pinned in
// testdata/hashes.golden. Changing the canonical encoding (field set,
// ordering, defaults, version) must change these hashes, and the golden
// test turns that silent cache invalidation into a loud failure.
func goldenMatrix() []struct {
	name string
	spec Spec
} {
	return []struct {
		name string
		spec Spec
	}{
		{"zero-run", Spec{Benchmark: "astar", Monitor: "MemLeak"}},
		{"explicit-defaults", Spec{
			Benchmark: "astar", Monitor: "MemLeak", Accel: AccelFADE,
			Core: Core4Way, AppCores: 1, SMT: true,
			Instrs: 400_000, EventQueueCap: 32, UnfilteredCap: 16,
		}},
		{"unaccelerated", Spec{Benchmark: "bzip", Monitor: "AddrCheck", Accel: AccelNone, Seed: 7}},
		{"blocking-signal", Spec{
			Benchmark: "mcf", Monitor: "TaintCheck", Accel: AccelBlocking,
			BlockingSignalCycles: 14, Instrs: 250_000,
		}},
		{"cmp-4core", Spec{
			Benchmark: "ocean", Monitor: "AtomCheck", Accel: AccelFADE,
			AppCores: 4, MonCores: 4, Seed: 3, Instrs: 100_000,
		}},
		{"two-core-sep", Spec{Benchmark: "astar", Monitor: "MemLeak", AppCores: 1, MonCores: 1}},
		{"inorder-core", Spec{Benchmark: "omnet", Monitor: "LockCheck", Core: CoreInOrder}},
		{"timeline-ff", Spec{
			Benchmark: "astar", Monitor: "MemLeak", TimelineEvery: 5_000,
			FastForward: true, MaxCycles: 2_000_000,
		}},
		{"invariants", Spec{Benchmark: "ocean", Monitor: "AtomCheck", CheckInvariants: true}},
		{"mdcache-1kb", Spec{Benchmark: "mcf", Monitor: "TaintCheck", MDCacheBytes: 1024, WarmupInstrs: 10_000}},
		{"faulted", Spec{
			Benchmark: "astar", Monitor: "MemLeak", Seed: 11,
			Faults: &fault.Plan{
				Seed:         5,
				MonitorStall: &fault.Stall{MeanGap: 1024, MeanDuration: 1024},
				EventDrop:    &fault.Drop{Rate: 0.001, Start: 1000},
			},
		}},
		{"injected", Spec{
			Benchmark: "leaky", Monitor: "MemLeak",
			Inject: &trace.Inject{LeakFrac: 0.25, WildAccessPer1K: 0.5},
		}},
		{"study-unbounded", Spec{
			Kind: KindStudy, Benchmark: "astar", Monitor: "MemLeak",
			EventQueueCap: int(^uint(0) >> 1), Instrs: 200_000,
		}},
		{"study-32", Spec{Kind: KindStudy, Benchmark: "ocean", Monitor: "AtomCheck", EventQueueCap: 32}},
		{"coremodel", Spec{Kind: KindCoreModel, Benchmark: "bzip", Seed: 1, Instrs: 300_000}},
		{"baseline", Spec{Kind: KindBaseline, Benchmark: "astar", Core: Core4Way, Seed: 1, Instrs: 300_000}},
		{"baseline-injected", Spec{
			Kind: KindBaseline, Benchmark: "leaky", Seed: 2,
			Inject: &trace.Inject{LeakFrac: 0.1},
		}},
	}
}

func TestGoldenHashes(t *testing.T) {
	path := filepath.Join("testdata", "hashes.golden")
	var buf strings.Builder
	for _, c := range goldenMatrix() {
		fmt.Fprintf(&buf, "%s %s\n", c.name, c.spec.HashString())
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden file missing (run go test ./internal/runspec -update): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fields[0]] = fields[1]
	}
	if len(want) != len(goldenMatrix()) {
		t.Fatalf("golden file has %d entries, matrix has %d — rerun with -update", len(want), len(goldenMatrix()))
	}
	for _, c := range goldenMatrix() {
		got := c.spec.HashString()
		if want[c.name] == "" {
			t.Errorf("%s: no golden entry — rerun with -update", c.name)
		} else if got != want[c.name] {
			t.Errorf("%s: hash changed\n got %s\nwant %s\nThe canonical encoding changed; this silently invalidates every disk cache. If intentional, bump canonicalVersion and rerun with -update.", c.name, got, want[c.name])
		}
	}
}

func TestNormalizeDefaultsHashEqual(t *testing.T) {
	implicit := Spec{Benchmark: "astar", Monitor: "MemLeak"}
	explicit := Spec{
		Benchmark: "astar", Monitor: "MemLeak", Accel: AccelFADE,
		Core: Core4Way, AppCores: 1, SMT: true,
		Instrs: 400_000, EventQueueCap: 32, UnfilteredCap: 16,
	}
	if implicit.Hash() != explicit.Hash() {
		t.Fatalf("implicit defaults hash differently from explicit defaults:\n%s\n%s",
			implicit.CanonicalBytes(), explicit.CanonicalBytes())
	}
	// An empty fault plan and a nil one are the same run.
	a := Spec{Benchmark: "astar", Monitor: "MemLeak", Faults: &fault.Plan{}}
	b := Spec{Benchmark: "astar", Monitor: "MemLeak"}
	if a.Hash() != b.Hash() {
		t.Fatal("empty fault plan changed the hash")
	}
	// A seeded-but-otherwise-empty plan is NOT empty: the injector seed is
	// live state.
	c := Spec{Benchmark: "astar", Monitor: "MemLeak", Faults: &fault.Plan{Seed: 9}}
	if c.Hash() == b.Hash() {
		t.Fatal("seeded fault plan did not change the hash")
	}
	if z := (Spec{Benchmark: "x", Inject: &trace.Inject{}}).Normalize(); z.Inject != nil {
		t.Fatal("zero Inject not dropped by Normalize")
	}
}

func TestWallClockNotHashed(t *testing.T) {
	a := Spec{Benchmark: "astar", Monitor: "MemLeak"}
	b := a
	b.WallClockMS = 60_000
	if a.Hash() != b.Hash() {
		t.Fatal("WallClockMS leaked into the hash; it is an execution budget, not run identity")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := Spec{Benchmark: "astar", Monitor: "MemLeak"}
	seen := map[[32]byte]string{base.Hash(): "base"}
	mutations := map[string]func(*Spec){
		"benchmark":  func(s *Spec) { s.Benchmark = "bzip" },
		"monitor":    func(s *Spec) { s.Monitor = "AddrCheck" },
		"accel":      func(s *Spec) { s.Accel = AccelNone },
		"core":       func(s *Spec) { s.Core = CoreInOrder },
		"topology":   func(s *Spec) { s.AppCores, s.MonCores, s.SMT = 2, 2, false },
		"seed":       func(s *Spec) { s.Seed = 42 },
		"instrs":     func(s *Spec) { s.Instrs = 100_000 },
		"warmup":     func(s *Spec) { s.WarmupInstrs = 1_000 },
		"evq":        func(s *Spec) { s.EventQueueCap = 64 },
		"ufq":        func(s *Spec) { s.UnfilteredCap = 8 },
		"mdcache":    func(s *Spec) { s.MDCacheBytes = 2048 },
		"signal":     func(s *Spec) { s.Accel, s.BlockingSignalCycles = AccelBlocking, 7 },
		"timeline":   func(s *Spec) { s.TimelineEvery = 10_000 },
		"invariants": func(s *Spec) { s.CheckInvariants = true },
		"ff":         func(s *Spec) { s.FastForward = true },
		"maxcycles":  func(s *Spec) { s.MaxCycles = 1 },
		"kind":       func(s *Spec) { s.Kind = KindStudy },
		"faults":     func(s *Spec) { s.Faults = &fault.Plan{EventDrop: &fault.Drop{Rate: 0.5}} },
		"inject":     func(s *Spec) { s.Inject = &trace.Inject{TaintedJump: true} },
	}
	names := make([]string, 0, len(mutations))
	for n := range mutations {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		s := base
		mutations[name](&s)
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q hashes identically to %q", name, prev)
		}
		seen[h] = name
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, c := range goldenMatrix() {
		b, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		var got Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.spec) {
			t.Errorf("%s: JSON round trip changed the spec:\n got %+v\nwant %+v", c.name, got, c.spec)
		}
		if got.Hash() != c.spec.Hash() {
			t.Errorf("%s: JSON round trip changed the hash", c.name)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Spec{Benchmark: "astar", Monitor: "MemLeak"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Benchmark: "astar", Kind: "nope"},
		{},
		{Benchmark: "astar", Accel: "turbo"},
		{Benchmark: "astar", Core: "8way"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}
