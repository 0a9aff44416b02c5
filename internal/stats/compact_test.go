package stats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// readings is everything a reader can learn of a histogram.
type readings struct {
	Total       uint64
	Mean        float64
	Max         int
	Percentiles []int
	CDF         []CDFPoint
	JSON        string
}

var (
	probePs   = []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1}
	probeVals = []int{-maxDense, -5, -1, 0, 1, 7, 63, 64, 1000, maxDense - 1, maxDense, 2 * maxDense}
)

func read(t *testing.T, h *Histogram) readings {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	r := readings{Total: h.Total(), Mean: h.Mean(), Max: h.Maximum(), CDF: h.CDFAtPoints(probeVals), JSON: string(b)}
	for _, p := range probePs {
		r.Percentiles = append(r.Percentiles, h.Percentile(p))
	}
	return r
}

// sampler draws one value from one region of the histogram's value range.
type sampler func(*rand.Rand) int

var samplers = map[string]sampler{
	"negative": func(r *rand.Rand) int { return -1 - r.Intn(2*maxDense) },
	"small":    func(r *rand.Rand) int { return r.Intn(100) },
	"dense":    func(r *rand.Rand) int { return r.Intn(maxDense) },
	"large":    func(r *rand.Rand) int { return maxDense + r.Intn(4*maxDense) },
}

// fill records n random samples drawn from the named regions into every
// histogram in hs, each as AddN with a random count.
func fill(rng *rand.Rand, n int, regions []string, hs ...*Histogram) {
	for i := 0; i < n; i++ {
		v := samplers[regions[rng.Intn(len(regions))]](rng)
		c := uint64(1 + rng.Intn(4))
		for _, h := range hs {
			h.AddN(v, c)
		}
	}
}

// TestHistogramCompactProperty: over random sample multisets, empty ones
// and ones drawn from negative values, the dense range and beyond it, a
// finished histogram reads exactly like the one it was compacted from,
// records exactly like an uncompacted copy, and equals its own decoded
// copy field for field.
func TestHistogramCompactProperty(t *testing.T) {
	mixes := [][]string{
		{"negative"}, {"small"}, {"dense"}, {"large"},
		{"small", "negative"}, {"small", "large"}, {"negative", "small", "dense", "large"},
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		regions := mixes[int(seed)%len(mixes)]
		n := 0
		if seed%10 != 0 {
			n = rng.Intn(300)
		}
		h, ref := &Histogram{}, &Histogram{}
		fill(rng, n, regions, h, ref)

		want := read(t, h)
		h.Compact()
		if got := read(t, h); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: compacting changed the readings:\n got %+v\nwant %+v", seed, got, want)
		}
		if h.dense != nil || h.sparse != nil || len(h.packed) != cap(h.packed) {
			t.Fatalf("seed %d: finished form keeps recording storage or slack", seed)
		}
		var dec Histogram
		if err := json.Unmarshal([]byte(want.JSON), &dec); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(&dec, h) {
			t.Fatalf("seed %d: decoded copy differs from the finished histogram:\n got %+v\nwant %+v", seed, dec, *h)
		}
		again := *h
		again.Compact()
		if !reflect.DeepEqual(&again, h) {
			t.Fatalf("seed %d: Compact is not idempotent", seed)
		}

		// Recording into the finished form, and into the decoded copy,
		// matches recording into the histogram that was never compacted.
		fill(rng, 1+rng.Intn(50), mixes[rng.Intn(len(mixes))], h, ref, &dec)
		want = read(t, ref)
		if got := read(t, h); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: AddN after Compact:\n got %+v\nwant %+v", seed, got, want)
		}
		if got := read(t, &dec); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: AddN after decoding:\n got %+v\nwant %+v", seed, got, want)
		}
		h.Compact()
		ref.Compact()
		if !reflect.DeepEqual(h, ref) {
			t.Fatalf("seed %d: finished forms differ after recording", seed)
		}
	}
}

// TestHistogramJSONRejectsInconsistentBuckets: the decoder keeps buckets as
// it reads them, so it refuses any that no recorded histogram has.
func TestHistogramJSONRejectsInconsistentBuckets(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"counts overflow", `{"total":0,"max":1,"buckets":[{"v":0,"n":18446744073709551615},{"v":1,"n":1}]}`},
		{"max above buckets", `{"total":1,"max":9,"buckets":[{"v":3,"n":1}]}`},
		{"max below buckets", `{"total":1,"max":2,"buckets":[{"v":3,"n":1}]}`},
		{"max of negatives", `{"total":1,"max":-3,"buckets":[{"v":-3,"n":1}]}`},
		{"max of empty", `{"total":0,"max":4}`},
		{"zero count past dense", `{"total":1,"max":70000,"buckets":[{"v":3,"n":1},{"v":70000,"n":0}]}`},
		{"zero count in dense", `{"total":1,"max":3,"buckets":[{"v":2,"n":0},{"v":3,"n":1}]}`},
	} {
		var h Histogram
		if err := json.Unmarshal([]byte(tc.in), &h); err == nil {
			t.Errorf("%s: %s decoded to %+v", tc.name, tc.in, h)
		}
	}
	// The max a recorded histogram carries: 0 when every value is
	// negative.
	var h Histogram
	if err := json.Unmarshal([]byte(`{"total":2,"sum":-8,"max":0,"buckets":[{"v":-5,"n":1},{"v":-3,"n":1}]}`), &h); err != nil {
		t.Fatalf("negative-only histogram: %v", err)
	}
}

// FuzzHistogramJSON: an accepted payload re-encodes to a fixed point, and
// every reader and a further AddN handle it without panicking.
func FuzzHistogramJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, regions := range [][]string{{"small"}, {"negative", "small", "dense", "large"}} {
		h := &Histogram{}
		fill(rng, 40, regions, h)
		b, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, 3, uint64(1))
	}
	for _, s := range []string{
		`{"total":0,"sum":0,"max":0}`,
		`null`,
		`{"total":0,"max":1,"buckets":[{"v":0,"n":18446744073709551615},{"v":1,"n":1}]}`,
		`{"total":1,"max":9,"buckets":[{"v":3,"n":1}]}`,
		`{"total":1,"max":70000,"buckets":[{"v":3,"n":1},{"v":70000,"n":0}]}`,
	} {
		f.Add([]byte(s), -7, uint64(2))
	}
	f.Fuzz(func(t *testing.T, b []byte, v int, n uint64) {
		var h Histogram
		if err := json.Unmarshal(b, &h); err != nil {
			return
		}
		b1, err := json.Marshal(&h)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		var h2 Histogram
		if err := json.Unmarshal(b1, &h2); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v\n%s", err, b1)
		}
		if b2, _ := json.Marshal(&h2); !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", b1, b2)
		}
		for _, p := range probePs {
			h.Percentile(p)
		}
		h.CDFAtPoints(probeVals)
		h.AddN(v, n)
		if _, err := json.Marshal(&h); err != nil {
			t.Fatalf("recorded-into payload does not encode: %v", err)
		}
	})
}
