package spans

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"fade/internal/obs"
)

func TestRingRetainsNewestAndCountsDrops(t *testing.T) {
	tr := New("t", 4)
	track := tr.NewTrack("c0")
	for i := 0; i < 10; i++ {
		tr.CycleInstant(track, NameCheckpoint, uint64(i), None, None)
	}
	if got := tr.Emitted(); got != 10 {
		t.Fatalf("Emitted = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	ss := tr.Spans()
	for i, s := range ss {
		if want := uint64(6 + i); s.Start != want {
			t.Fatalf("span %d start = %d, want %d (oldest-first, newest retained)", i, s.Start, want)
		}
	}
}

func TestSealShrinksRingAndCountsLateSpans(t *testing.T) {
	tr := New("t", 64)
	track := tr.NewTrack("c0")
	for i := 0; i < 3; i++ {
		tr.CycleInstant(track, NameCheckpoint, uint64(i), None, None)
	}
	before := tr.Spans()
	tr.Seal()
	if got := tr.Cap(); got != 3 {
		t.Fatalf("Cap after Seal = %d, want 3", got)
	}
	// Late spans are safe, stored nowhere and counted as dropped.
	tr.CycleInstant(track, NameCheckpoint, 99, None, None)
	tr.Wall(NameServeEncode, time.Now(), time.Now(), None, None)
	tr.Seal()
	if got := tr.Emitted(); got != 5 {
		t.Fatalf("Emitted = %d, want 5", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	after := tr.Spans()
	if len(after) != len(before) {
		t.Fatalf("sealed trace holds %d spans, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("span %d changed by Seal: %+v -> %+v", i, before[i], after[i])
		}
	}

	// A wrapped ring seals oldest-first; an empty one seals to nothing.
	wrapped := New("w", 4)
	for i := 0; i < 6; i++ {
		wrapped.CycleInstant(track, NameCheckpoint, uint64(i), None, None)
	}
	wrapped.Seal()
	if ss := wrapped.Spans(); len(ss) != 4 || ss[0].Start != 2 || ss[3].Start != 5 {
		t.Fatalf("wrapped seal = %+v", ss)
	}
	empty := New("e", 4)
	empty.Seal()
	empty.CycleInstant(track, NameCheckpoint, 1, None, None)
	if empty.Cap() != 0 || empty.Len() != 0 || empty.Dropped() != 1 {
		t.Fatalf("empty sealed trace: cap %d len %d dropped %d", empty.Cap(), empty.Len(), empty.Dropped())
	}
	var nilTrace *Trace
	nilTrace.Seal()
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Wall(NameServeAdmit, time.Now(), time.Now(), None, None)
	tr.WallInstant(NameServeCacheHit, time.Now(), None, None)
	tr.CycleSpan(tr.NewTrack("x"), NameFFJump, 0, 10, None, None)
	tr.CycleInstant(0, NameCheckpoint, 5, None, None)
	if tr.ID() != "" || tr.Len() != 0 || tr.Cap() != 0 || tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil trace leaked state: id=%q len=%d", tr.ID(), tr.Len())
	}
	if tr.Spans() != nil || tr.Tracks() != nil {
		t.Fatalf("nil trace returned spans/tracks")
	}
	var buf bytes.Buffer
	if err := WriteChromeJSON(&buf, tr); err != nil {
		t.Fatalf("WriteChromeJSON(nil): %v", err)
	}
	if err := ValidateChromeJSON(buf.Bytes()); err != nil {
		t.Fatalf("empty trace export invalid: %v", err)
	}
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatalf("WriteJSONL(nil): %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil ctx tolerated by contract
		t.Fatalf("FromContext(nil) = %v, want nil", got)
	}
	tr := New("r-000001", 0)
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext returned %v, want the installed trace", got)
	}
	if ctx2 := NewContext(context.Background(), nil); FromContext(ctx2) != nil {
		t.Fatalf("NewContext(nil trace) installed a value")
	}
}

func buildSample() *Trace {
	tr := New("r-000042", 16)
	sched := tr.NewTrack("sim/sched")
	core := tr.NewTrack("sim/app0")
	epoch := tr.Epoch()
	tr.Wall(NameServeAdmit, epoch, epoch.Add(120*time.Microsecond), Str("tenant", "acme"), None)
	tr.WallInstant(NameServeCacheHit, epoch.Add(200*time.Microsecond), None, None)
	tr.CycleSpan(sched, NameFFJump, 100, 180, Str("reason", "wake"), Num("sleeper", 3))
	tr.CycleSpan(core, NameMEQFull, 812, 852, Num("occupancy", 32), None)
	tr.CycleInstant(core, NameFaultDrop, 900, None, None)
	tr.CycleSpan(sched, NameRun, 0, 1000, Num("cores", 1), None)
	return tr
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeJSON(&a, buildSample()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeJSON(&b, buildSample()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same span stream exported differently:\n%s\n---\n%s", a.Bytes(), b.Bytes())
	}
	if err := ValidateChromeJSON(a.Bytes()); err != nil {
		t.Fatalf("export failed its own validator: %v", err)
	}
	out := a.String()
	for _, want := range []string{
		`"name":"process_name"`, `"sim/sched"`, `"sim/app0"`,
		`"ph":"X"`, `"ph":"i"`, `"reason":"wake"`, `"sleeper":3`,
		`"traceId":"r-000042"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %s:\n%s", want, out)
		}
	}
}

func TestJSONLExportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, buildSample()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, buildSample()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same span stream exported differently")
	}
	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), a.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"trace":"r-000042","domain":`) {
			t.Fatalf("line missing trace/domain prefix: %s", l)
		}
	}
	if !strings.Contains(a.String(), `"track":"sim/app0","name":"queue.meq.full","kind":"span","start":812,"dur":40,"args":{"occupancy":32}`) {
		t.Fatalf("JSONL line shape drifted:\n%s", a.String())
	}
}

func TestValidatorRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":[`,
		"no array":      `{"events":[]}`,
		"missing name":  `{"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"Q","ts":1,"pid":1,"tid":1}]}`,
		"missing ts":    `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1}]}`,
		"missing dur":   `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		"missing pid":   `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":1,"tid":1}]}`,
		"negative time": `{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":1,"tid":1}]}`,
	}
	for label, doc := range cases {
		if err := ValidateChromeJSON([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted %s", label, doc)
		}
	}
	if err := ValidateChromeJSON([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Errorf("empty event list rejected: %v", err)
	}
}

func TestCollectorMetrics(t *testing.T) {
	tr := New("t", 2)
	tr.CycleInstant(0, NameCheckpoint, 1, None, None)
	tr.CycleInstant(0, NameCheckpoint, 2, None, None)
	tr.CycleInstant(0, NameCheckpoint, 3, None, None)
	reg := obs.NewRegistry()
	reg.Register(tr.Collector())
	snap := reg.Snapshot()
	want := map[string]float64{
		"spans.emitted":        3,
		"spans.dropped":        1,
		"spans.ring.occupancy": 2,
		"spans.ring.capacity":  2,
	}
	for k, v := range want {
		got, ok := snap.Get(k)
		if !ok || got != v {
			t.Errorf("%s = %v (present=%v), want %v", k, got, ok, v)
		}
	}
}

func TestConcurrentEmission(t *testing.T) {
	tr := New("t", 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			track := tr.NewTrack("g")
			for i := 0; i < 1000; i++ {
				tr.CycleInstant(track, NameCheckpoint, uint64(i), None, None)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Emitted(); got != 8000 {
		t.Fatalf("Emitted = %d, want 8000", got)
	}
	if got := tr.Len(); got != 128 {
		t.Fatalf("Len = %d, want 128", got)
	}
}

func TestKnownNames(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names {
		if seen[n] {
			t.Errorf("duplicate registered name %q", n)
		}
		seen[n] = true
		if !Known(n) {
			t.Errorf("Known(%q) = false", n)
		}
		if !obs.ValidName(n) {
			t.Errorf("span name %q violates the obs name grammar", n)
		}
	}
	if Known("no.such.span") {
		t.Errorf("Known accepted an unregistered name")
	}
}
