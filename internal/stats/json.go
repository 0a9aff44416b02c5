package stats

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// histWire is Histogram's JSON form: the summary scalars plus every
// occupied bucket, sorted ascending by value. The incremental float sum is
// carried explicitly (float64 JSON round-trips exactly via Go's
// shortest-representation encoding) rather than recomputed from the
// buckets, whose summation order would differ from Add's and perturb the
// low bits — decode must reproduce the encoder's state bit-for-bit so
// cached results stay byte-identical to fresh ones.
type histWire struct {
	Total   uint64   `json:"total"`
	Sum     float64  `json:"sum"`
	Max     int      `json:"max"`
	Buckets []bucket `json:"buckets,omitempty"`
}

// MarshalJSON encodes the histogram deterministically (buckets ascending).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histWire{Total: h.total, Sum: h.sum, Max: h.max, Buckets: h.buckets()})
}

// UnmarshalJSON restores a histogram from its wire form, in the finished
// form: the decoded buckets are kept as they are. It sets the internal
// fields directly so the float sum (and therefore every derived mean)
// matches the encoder's exactly, and rejects buckets no recorded
// histogram could have, so every accepted payload re-encodes unchanged.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var w histWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("stats: histogram: %w", err)
	}
	var total uint64
	maxV := 0 // a recorded histogram's max starts at 0
	for i, b := range w.Buckets {
		// The encoder writes each value once, ascending; a repeated value
		// would overwrite its earlier count behind the total check.
		if i > 0 && b.V <= w.Buckets[i-1].V {
			return fmt.Errorf("stats: histogram: bucket values not strictly ascending at %d", b.V)
		}
		if b.N == 0 {
			return fmt.Errorf("stats: histogram: empty bucket at %d", b.V)
		}
		var carry uint64
		if total, carry = bits.Add64(total, b.N, 0); carry != 0 {
			return fmt.Errorf("stats: histogram: bucket counts overflow at %d", b.V)
		}
		maxV = max(maxV, b.V)
	}
	if total != w.Total {
		return fmt.Errorf("stats: histogram: bucket counts sum to %d, header says %d", total, w.Total)
	}
	if maxV != w.Max {
		return fmt.Errorf("stats: histogram: max is %d, buckets say %d", w.Max, maxV)
	}
	if len(w.Buckets) == 0 {
		w.Buckets = nil // Compact's empty form
	}
	*h = Histogram{total: w.Total, sum: w.Sum, max: w.Max, packed: w.Buckets}
	return nil
}
