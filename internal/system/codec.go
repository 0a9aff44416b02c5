package system

import (
	"encoding/json"
	"fmt"
	"sync"

	"fade/internal/obs"
)

// codecVersion versions the cached-outcome encoding. rcache's disk format
// carries its own framing version; this one covers the payload schema, so
// a Result shape change invalidates cached entries loudly (decode error →
// recompute) instead of silently misreading them.
const codecVersion = 2

// snapWire is the lossless wire form of obs.Snapshot. Snapshot's own
// MarshalJSON is the human-facing exposition ({"cycle":N,"metrics":{...}})
// and drops each value's kind and exact count, so the cache codec carries
// the raw values instead.
type snapWire struct {
	Cycle  uint64      `json:"cycle"`
	Values []valueWire `json:"values"`
}

// valueWire is the wire form of obs.Value: every value carries its name,
// kind, float sample and exact count (0 for a gauge), a counter's count
// twice.
type valueWire struct {
	Name  string
	Kind  obs.Kind
	Num   float64
	Count uint64
}

// wireValues recycles the buffer EncodeOutcome converts values into, so
// converting costs no allocation per outcome once the pool is warm. A
// buffer is never nil, so a snapshot with no values still encodes as [].
var wireValues = sync.Pool{New: func() any { return &[]valueWire{} }}

// snapToWire converts s into the wire form, its values appended to buf.
func snapToWire(s *obs.Snapshot, buf *[]valueWire) *snapWire {
	if s == nil {
		return nil
	}
	w := &snapWire{Cycle: s.Cycle}
	if s.Values != nil {
		start := len(*buf)
		for _, v := range s.Values {
			*buf = append(*buf, valueWire{Name: v.Name, Kind: v.Kind, Num: v.Num(), Count: v.Count()})
		}
		w.Values = (*buf)[start:]
	}
	return w
}

// snapFromWire builds an exactly sized value slice: encoding/json grows its
// slice by doubling, and the slack would stay allocated for as long as the
// outcome is kept (every table a sweep holds, every run record a server
// keeps). A value of a kind the codec never writes is an error.
func snapFromWire(w *snapWire) (*obs.Snapshot, error) {
	if w == nil {
		return nil, nil
	}
	vals := make([]obs.Value, len(w.Values))
	for i, v := range w.Values {
		switch v.Kind {
		case obs.KindCounter:
			vals[i] = obs.CounterValue(v.Name, v.Count)
		case obs.KindGauge:
			vals[i] = obs.GaugeValue(v.Name, v.Num)
		default:
			return nil, fmt.Errorf("system: outcome decode: metric %q has kind %d", v.Name, v.Kind)
		}
	}
	internNames(vals)
	return &obs.Snapshot{Cycle: w.Cycle, Values: vals}, nil
}

// maxInternedNames bounds the metric-name intern table. The simulator's
// metric vocabulary is a few hundred names; names past the bound are kept
// as decoded, so a stream of unusual names cannot grow the table.
const maxInternedNames = 4096

// metricNames is the process-wide intern table for decoded metric names.
var metricNames = struct {
	sync.Mutex
	m map[string]string
}{m: make(map[string]string)}

// internNames points every value's name at one shared copy, so decoded
// outcomes kept side by side (a sweep's table, a server's run records)
// do not each hold their own copy of every metric name.
func internNames(vals []obs.Value) {
	metricNames.Lock()
	defer metricNames.Unlock()
	for i := range vals {
		name := vals[i].Name
		if s, ok := metricNames.m[name]; ok {
			vals[i].Name = s
		} else if len(metricNames.m) < maxInternedNames {
			metricNames.m[name] = name
		}
	}
}

// runWire carries a Result with its snapshots lifted out of the struct
// (the Result's Metrics/Timeline fields are nil'd for the trip) so they
// round-trip losslessly.
type runWire struct {
	Result   *Result     `json:"result"`
	Metrics  *snapWire   `json:"metrics,omitempty"`
	Timeline []*snapWire `json:"timeline,omitempty"`
}

type studyWire struct {
	Study   *QueueStudy `json:"study"`
	Metrics *snapWire   `json:"metrics,omitempty"`
}

type outcomeWire struct {
	V         int              `json:"v"`
	Run       *runWire         `json:"run,omitempty"`
	Study     *studyWire       `json:"study,omitempty"`
	CoreModel *CoreModelIPC    `json:"core_model,omitempty"`
	Baseline  *BaselineOutcome `json:"baseline,omitempty"`
}

// EncodeOutcome serializes an outcome for the result cache. The encoding
// is deterministic (struct fields in declaration order, map keys sorted,
// histograms via their canonical bucket form), so identical outcomes
// encode to identical bytes.
func EncodeOutcome(o *Outcome) ([]byte, error) {
	buf := wireValues.Get().(*[]valueWire)
	defer func() {
		clear(*buf)
		*buf = (*buf)[:0]
		wireValues.Put(buf)
	}()
	w := outcomeWire{V: codecVersion, CoreModel: o.CoreModel, Baseline: o.Baseline}
	if r := o.Result; r != nil {
		flat := *r
		flat.Metrics, flat.Timeline = nil, nil
		rw := &runWire{Result: &flat, Metrics: snapToWire(r.Metrics, buf)}
		for _, s := range r.Timeline {
			rw.Timeline = append(rw.Timeline, snapToWire(s, buf))
		}
		w.Run = rw
	}
	if qs := o.Study; qs != nil {
		flat := *qs
		flat.Metrics = nil
		w.Study = &studyWire{Study: &flat, Metrics: snapToWire(qs.Metrics, buf)}
	}
	return json.Marshal(w)
}

// DecodeOutcome is the inverse of EncodeOutcome. A version mismatch or
// malformed payload is an error — the caller (the cache layer) treats it
// like a miss and recomputes.
func DecodeOutcome(b []byte) (*Outcome, error) {
	var w outcomeWire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("system: outcome decode: %w", err)
	}
	if w.V != codecVersion {
		return nil, fmt.Errorf("system: outcome codec version %d, want %d", w.V, codecVersion)
	}
	o := &Outcome{CoreModel: w.CoreModel, Baseline: w.Baseline}
	if w.Run != nil {
		if w.Run.Result == nil {
			return nil, fmt.Errorf("system: outcome decode: run entry without result")
		}
		res := w.Run.Result
		var err error
		if res.Metrics, err = snapFromWire(w.Run.Metrics); err != nil {
			return nil, err
		}
		for _, s := range w.Run.Timeline {
			snap, err := snapFromWire(s)
			if err != nil {
				return nil, err
			}
			res.Timeline = append(res.Timeline, snap)
		}
		o.Result = res
	}
	if w.Study != nil {
		if w.Study.Study == nil {
			return nil, fmt.Errorf("system: outcome decode: study entry without study")
		}
		qs := w.Study.Study
		var err error
		if qs.Metrics, err = snapFromWire(w.Study.Metrics); err != nil {
			return nil, err
		}
		o.Study = qs
	}
	return o, nil
}
