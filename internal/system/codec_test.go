package system

import (
	"bytes"
	"context"
	"testing"

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
