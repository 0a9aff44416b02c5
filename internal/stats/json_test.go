package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		h.Add(rng.Intn(128))
	}
	// Sparse territory, including negatives.
	h.Add(maxDense + 17)
	h.Add(-3)
	h.AddN(maxDense+1000, 5)

	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.total != h.total || got.sum != h.sum || got.max != h.max {
		t.Fatalf("scalars differ: got {%d %v %d} want {%d %v %d}",
			got.total, got.sum, got.max, h.total, h.sum, h.max)
	}
	if !reflect.DeepEqual(got.buckets(), h.buckets()) {
		t.Fatal("occupied buckets differ after round trip")
	}
	// Derived statistics must be bit-identical (cached results must
	// render exactly like fresh ones).
	if got.Mean() != h.Mean() || got.Percentile(0.99) != h.Percentile(0.99) || cdfAt(&got, 64) != cdfAt(h, 64) {
		t.Fatal("derived statistics differ after round trip")
	}
	// And the encoding itself is deterministic.
	b2, _ := json.Marshal(&got)
	if string(b) != string(b2) {
		t.Fatal("re-encoding differs")
	}
}

func TestHistogramJSONEmptyAndNull(t *testing.T) {
	var h Histogram
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total() != 0 || got.Maximum() != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
	if err := json.Unmarshal([]byte("null"), &got); err != nil {
		t.Fatalf("null: %v", err)
	}
}

func TestHistogramJSONRejectsInconsistentTotal(t *testing.T) {
	var h Histogram
	err := json.Unmarshal([]byte(`{"total":5,"sum":2,"max":2,"buckets":[{"v":2,"n":1}]}`), &h)
	if err == nil {
		t.Fatal("inconsistent bucket total accepted")
	}
}

// TestHistogramJSONRejectsRepeatedBuckets: a repeated bucket value would
// overwrite the earlier count while the header total still matches the
// sum, so the histogram would re-encode inconsistently.
func TestHistogramJSONRejectsRepeatedBuckets(t *testing.T) {
	var h Histogram
	err := json.Unmarshal([]byte(`{"total":5,"sum":0,"max":0,"buckets":[{"v":0,"n":3},{"v":0,"n":2}]}`), &h)
	if err == nil {
		t.Fatal("repeated bucket value accepted")
	}
}
