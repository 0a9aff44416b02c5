package obs

import (
	"bytes"
	"math"
	"strconv"

	"fade/internal/stats"
)

// Value is one exported metric sample. Kind says how to read its one
// payload word: a counter's exact count, or a gauge's float64 bits.
// Build values with CounterValue and GaugeValue.
type Value struct {
	Name string
	Kind Kind
	bits uint64
}

// CounterValue returns a counter sample of n.
func CounterValue(name string, n uint64) Value {
	return Value{Name: name, Kind: KindCounter, bits: n}
}

// GaugeValue returns a gauge sample of x.
func GaugeValue(name string, x float64) Value {
	return Value{Name: name, Kind: KindGauge, bits: math.Float64bits(x)}
}

// Num returns the sample as a float64, a counter's count converted.
func (v Value) Num() float64 {
	if v.Kind == KindCounter {
		return float64(v.bits)
	}
	return math.Float64frombits(v.bits)
}

// Count returns a counter's exact count, and 0 for a gauge.
func (v Value) Count() uint64 {
	if v.Kind == KindCounter {
		return v.bits
	}
	return 0
}

// Format renders the sample deterministically: counters as integers,
// gauges in the shortest float representation.
func (v Value) Format() string {
	if v.Kind == KindCounter {
		return strconv.FormatUint(v.bits, 10)
	}
	return strconv.FormatFloat(v.Num(), 'g', -1, 64)
}

// Snapshot is a flattened, name-sorted view of a registry at one point in
// (simulated) time. Cycle is the sampling cycle for timeline points and 0
// for end-of-run snapshots.
type Snapshot struct {
	Cycle  uint64
	Values []Value
}

// Get returns the sample with the given name.
func (s *Snapshot) Get(name string) (float64, bool) {
	for _, v := range s.Values {
		if v.Name == name {
			return v.Num(), true
		}
	}
	return 0, false
}

// Counter returns the exact count of the named counter (0 when absent or
// not a counter).
func (s *Snapshot) Counter(name string) uint64 {
	for _, v := range s.Values {
		if v.Name == name && v.Kind == KindCounter {
			return v.bits
		}
	}
	return 0
}

// MarshalJSON renders the snapshot as {"cycle":N,"metrics":{name:value}}
// with names in sorted order, so the encoding is byte-deterministic.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"cycle":`)
	b.WriteString(strconv.FormatUint(s.Cycle, 10))
	b.WriteString(`,"metrics":{`)
	for i, v := range s.Values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(v.Name))
		b.WriteByte(':')
		b.WriteString(v.Format())
	}
	b.WriteString("}}")
	return b.Bytes(), nil
}

// collectSink accumulates emitted metrics into a name-keyed map, expanding
// histograms into derived scalar series.
type collectSink struct {
	values map[string]Value
}

func (c *collectSink) Counter(name string, v uint64) {
	MustValidName(name)
	c.values[name] = CounterValue(name, v)
}

func (c *collectSink) Gauge(name string, v float64) {
	MustValidName(name)
	c.values[name] = GaugeValue(name, v)
}

func (c *collectSink) Histogram(name string, h *stats.Histogram) {
	MustValidName(name)
	c.Counter(name+".count", h.Total())
	c.Gauge(name+".mean", h.Mean())
	c.Gauge(name+".max", float64(h.Maximum()))
	if h.Total() > 0 {
		c.Gauge(name+".p50", float64(h.Percentile(0.50)))
		c.Gauge(name+".p99", float64(h.Percentile(0.99)))
	} else {
		c.Gauge(name+".p50", 0)
		c.Gauge(name+".p99", 0)
	}
}

// HistogramSuffixes lists the derived series a histogram expands into;
// docs/METRICS.md documents each expanded name explicitly and the obs tests
// use this list to keep the two in sync.
var HistogramSuffixes = []string{".count", ".mean", ".max", ".p50", ".p99"}
