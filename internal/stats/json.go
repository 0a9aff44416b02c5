package stats

import (
	"encoding/json"
	"fmt"
)

// histWire is Histogram's JSON form: the summary scalars plus every
// occupied bucket, sorted ascending by value. The incremental float sum is
// carried explicitly (float64 JSON round-trips exactly via Go's
// shortest-representation encoding) rather than recomputed from the
// buckets, whose summation order would differ from Add's and perturb the
// low bits — decode must reproduce the encoder's state bit-for-bit so
// cached results stay byte-identical to fresh ones.
type histWire struct {
	Total   uint64    `json:"total"`
	Sum     float64   `json:"sum"`
	Max     int       `json:"max"`
	Buckets []histBkt `json:"buckets,omitempty"`
}

type histBkt struct {
	V int    `json:"v"`
	N uint64 `json:"n"`
}

// MarshalJSON encodes the histogram deterministically (buckets ascending).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	w := histWire{Total: h.total, Sum: h.sum, Max: h.max}
	for _, v := range h.sortedKeys() {
		w.Buckets = append(w.Buckets, histBkt{V: v, N: h.count(v)})
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a histogram from its wire form, setting the
// internal fields directly so the float sum (and therefore every derived
// mean) matches the encoder's exactly.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var w histWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("stats: histogram: %w", err)
	}
	*h = Histogram{total: w.Total, sum: w.Sum, max: w.Max}
	var bucketTotal uint64
	for i, b := range w.Buckets {
		// The encoder writes each value once, ascending; a repeated value
		// would overwrite its earlier count behind the total check.
		if i > 0 && b.V <= w.Buckets[i-1].V {
			return fmt.Errorf("stats: histogram: bucket values not strictly ascending at %d", b.V)
		}
		if b.V >= 0 && b.V < maxDense {
			if b.V >= len(h.dense) {
				h.growDense(b.V)
			}
			h.dense[b.V] = b.N
		} else {
			if h.sparse == nil {
				h.sparse = make(map[int]uint64)
			}
			h.sparse[b.V] = b.N
		}
		bucketTotal += b.N
	}
	if bucketTotal != w.Total {
		return fmt.Errorf("stats: histogram: bucket counts sum to %d, header says %d", bucketTotal, w.Total)
	}
	return nil
}
