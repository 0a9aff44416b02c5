package system

import (
	"bytes"
	"context"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"fade/internal/obs"
	"fade/internal/runspec"
)

// FuzzDecodeOutcome feeds the outcome codec arbitrary cache payloads: a
// damaged or foreign entry must come back as an error, never a panic, and
// an accepted payload must reach a fixed point after one re-encode/decode
// (so a cache entry rewritten from a decoded outcome is stable).
func FuzzDecodeOutcome(f *testing.F) {
	for _, spec := range []runspec.Spec{
		{Benchmark: "astar", Monitor: "MemLeak", Seed: 1, Instrs: 5_000, TimelineEvery: 2_000},
		{Kind: runspec.KindStudy, Benchmark: "astar", Monitor: "AddrCheck", EventQueueCap: 32, Seed: 1, Instrs: 5_000},
		{Kind: runspec.KindCoreModel, Benchmark: "astar", Seed: 1, Instrs: 5_000},
		{Kind: runspec.KindBaseline, Benchmark: "astar", Seed: 1, Instrs: 5_000},
	} {
		out, err := ExecSpec(context.Background(), spec)
		if err != nil {
			f.Fatal(err)
		}
		b, err := EncodeOutcome(out)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"v":0,"run":{"result":{}}}`))
	// A histogram whose repeated bucket value hid a lost count behind a
	// matching total; it decoded, then its re-encoding did not.
	f.Add([]byte(`{"v":2,"study":{"study":{"Occupancy":{"total":13568,"buckets":[{"n":11975},{"n":1405},{"n":183},{"n":5}]}}}}`))
	// Histograms no recording produces: counts that overflow to the
	// total, a max the buckets disagree with, and an empty bucket past
	// the dense range that re-encoded as itself.
	f.Add([]byte(`{"v":2,"study":{"study":{"Occupancy":{"total":0,"max":1,"buckets":[{"v":0,"n":18446744073709551615},{"v":1,"n":1}]}}}}`))
	f.Add([]byte(`{"v":2,"study":{"study":{"Occupancy":{"total":1,"max":9,"buckets":[{"v":3,"n":1}]}}}}`))
	f.Add([]byte(`{"v":2,"study":{"study":{"Occupancy":{"total":1,"max":70000,"buckets":[{"v":3,"n":1},{"v":70000,"n":0}]}}}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := DecodeOutcome(b)
		if err != nil {
			return
		}
		b1, err := EncodeOutcome(o)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		o2, err := DecodeOutcome(b1)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		b2, err := EncodeOutcome(o2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", b1, b2)
		}
	})
}

// TestValueWireForm pins how a metric value is encoded: name, kind, float
// sample and exact count, a counter's count in both, so cached outcomes
// written before values shrank to one payload word still decode, and
// re-encode to the same bytes.
func TestValueWireForm(t *testing.T) {
	snap := &obs.Snapshot{Cycle: 7, Values: []obs.Value{
		obs.CounterValue("app.instrs", 1<<53+1),
		obs.GaugeValue("core.filter_ratio", 0.25),
		obs.GaugeValue("neg", math.Copysign(0, -1)),
	}}
	b, err := EncodeOutcome(&Outcome{Result: &Result{Metrics: snap}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `"metrics":{"cycle":7,"values":[` +
		`{"Name":"app.instrs","Kind":0,"Num":9007199254740992,"Count":9007199254740993},` +
		`{"Name":"core.filter_ratio","Kind":1,"Num":0.25,"Count":0},` +
		`{"Name":"neg","Kind":1,"Num":-0,"Count":0}]}`
	if !strings.Contains(string(b), want) {
		t.Fatalf("wire form changed:\n%s\nwant it to contain\n%s", b, want)
	}
	o, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	got := o.Result.Metrics
	if got.Counter("app.instrs") != 1<<53+1 || got.Values[1] != snap.Values[1] || !math.Signbit(got.Values[2].Num()) {
		t.Fatalf("decoded %+v, want %+v", got.Values, snap.Values)
	}
	if b2, _ := EncodeOutcome(o); !bytes.Equal(b, b2) {
		t.Fatalf("re-encoding differs:\n%s\n%s", b, b2)
	}
	bad := strings.Replace(string(b), `"Kind":1`, `"Kind":2`, 1)
	if _, err := DecodeOutcome([]byte(bad)); err == nil {
		t.Fatal("a value of unknown kind decoded")
	}

	// A snapshot with no values keeps [] apart from a nil slice's null.
	b, err = EncodeOutcome(&Outcome{Result: &Result{
		Metrics:  &obs.Snapshot{Values: []obs.Value{}},
		Timeline: []*obs.Snapshot{{Cycle: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"metrics":{"cycle":0,"values":[]}`) || !strings.Contains(string(b), `"timeline":[{"cycle":1,"values":null}]`) {
		t.Fatalf("empty snapshots encode as %s", b)
	}
	if *wireValues.New().(*[]valueWire) == nil {
		t.Fatal("a fresh conversion buffer is nil: a first encoding would write null for []")
	}
}

// TestEncodeAllocsPerValue: converting metric values to the wire form
// allocates nothing per value, so an outcome's encoding allocates as many
// times with its snapshots' values as with them emptied. Collection is
// off while it counts: a collection empties the pool the conversion
// buffer is kept in, as it does encoding/json's own buffers.
func TestEncodeAllocsPerValue(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out, err := ExecSpec(context.Background(), runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", Seed: 1, Instrs: 5_000, TimelineEvery: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	r := *out.Result
	if len(r.Timeline) == 0 || len(r.Metrics.Values) == 0 {
		t.Fatal("the run has no timeline or metrics")
	}
	bare := r
	bare.Metrics = &obs.Snapshot{Values: []obs.Value{}}
	bare.Timeline = nil
	for range r.Timeline {
		bare.Timeline = append(bare.Timeline, &obs.Snapshot{Values: []obs.Value{}})
	}
	allocs := func(res *Result) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := EncodeOutcome(&Outcome{Result: res}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if full, empty := allocs(&r), allocs(&bare); full > empty {
		t.Fatalf("encoding allocates %.0f times with values, %.0f without", full, empty)
	}
}
