package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fade/internal/fault"
	"fade/internal/trace"
)

// Spec kinds. The zero value describes a full-system run; the other kinds
// name the repository's auxiliary simulation shapes so they share the same
// cache.
const (
	// KindRun is a full-system simulation: application core(s),
	// filtering unit(s), software monitor, baselines.
	KindRun = ""
	// KindStudy is the Section 3 queue characterization: an ideal
	// 1-event/cycle drain behind the event queue. EventQueueCap holds the
	// studied capacity (which may be queue.Unbounded).
	KindStudy = "study"
	// KindCoreModel is the core-model cross-validation study: baseline
	// IPC under the rate-based and dependency-driven timing models. Only
	// Benchmark, Seed, and Instrs apply.
	KindCoreModel = "coremodel"
	// KindBaseline is an unmonitored application-only baseline run (the
	// denominator of every slowdown). Only Benchmark, Core, Seed, Instrs,
	// WarmupInstrs, and Inject apply.
	KindBaseline = "baseline"
)

// Acceleration mode names (the serving API's wire vocabulary).
const (
	AccelNone     = "none"
	AccelBlocking = "blocking"
	AccelFADE     = "fade"
)

// Core model names.
const (
	CoreInOrder = "inorder"
	Core2Way    = "2way"
	Core4Way    = "4way"
)

// Spec is the canonical description of one simulation run. The zero value
// of every field selects its documented default, and Normalize folds those
// defaults in explicitly, so two Specs describing the same run always
// canonicalize — and therefore hash — identically.
//
// Spec deliberately excludes execution knobs that cannot change a
// completed run's result: worker-pool width, output/telemetry sinks, and
// the wall-clock budget (WallClockMS rides along for executors but is
// not part of the canonical encoding).
type Spec struct {
	// Kind selects the simulation shape: KindRun (the zero value),
	// KindStudy, KindCoreModel, or KindBaseline.
	Kind string `json:"kind,omitempty"`

	// Benchmark is the workload profile name. Required for every kind.
	Benchmark string `json:"benchmark"`
	// Monitor is the monitoring tool (unused by KindCoreModel and
	// KindBaseline).
	Monitor string `json:"monitor,omitempty"`
	// Accel is the acceleration mode: AccelNone, AccelBlocking, or
	// AccelFADE ("" normalizes to AccelFADE for KindRun).
	Accel string `json:"accel,omitempty"`
	// Core is the core model: CoreInOrder, Core2Way, or Core4Way
	// ("" normalizes to Core4Way).
	Core string `json:"core,omitempty"`

	// AppCores/MonCores/SMT describe the topology: AppCores application
	// cores, each with its own filtering unit and queues, whose monitor
	// threads run either in each core's second SMT thread (SMT, MonCores
	// 0) or round-robin on MonCores dedicated monitor cores. The zero
	// topology normalizes to the paper's single dual-threaded SMT core.
	AppCores int  `json:"app_cores,omitempty"`
	MonCores int  `json:"mon_cores,omitempty"`
	SMT      bool `json:"smt,omitempty"`

	// Seed seeds the workload (and, via fault.Plan.Seed 0, the injector).
	Seed uint64 `json:"seed,omitempty"`
	// Instrs is the application instruction budget per core (0 normalizes
	// to 400000, the simulator's default).
	Instrs uint64 `json:"instrs,omitempty"`
	// WarmupInstrs excludes the first N instructions from the slowdown
	// measurement.
	WarmupInstrs uint64 `json:"warmup_instrs,omitempty"`

	// EventQueueCap / UnfilteredCap size the decoupling queues. For
	// KindRun, 0 normalizes to the paper's 32/16; for KindStudy,
	// EventQueueCap is the studied capacity and is left as given.
	EventQueueCap int `json:"event_queue_cap,omitempty"`
	UnfilteredCap int `json:"unfiltered_cap,omitempty"`
	// MDCacheBytes overrides the metadata cache size (0 = the paper's
	// 4 KB).
	MDCacheBytes int `json:"md_cache_bytes,omitempty"`
	// BlockingSignalCycles overrides the blocking accelerator's
	// completion-signal latency (0 = default, -1 = ideal doorbell).
	BlockingSignalCycles int `json:"blocking_signal_cycles,omitempty"`

	// TimelineEvery samples the metrics registry every N cycles. It is
	// part of the hash: it changes the result document (the timeline).
	TimelineEvery uint64 `json:"timeline_every,omitempty"`
	// CheckInvariants arms the per-cycle invariant checker. Hashed: it
	// changes which runs complete (and pins fast-forward off).
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// FastForward arms the scheduler's quiescence skip-ahead. Results are
	// byte-identical either way, but the sim.ff.* metric series appear
	// only when set, so the flag is part of the hash (the metrics dump is
	// part of the result). KindBaseline ignores it: a baseline always
	// runs with skip-ahead armed, and its outcome has no sim.ff.* series.
	FastForward bool `json:"fast_forward,omitempty"`

	// MaxCycles caps simulated time (0 selects DefaultMaxCycles(Instrs);
	// see CycleCap). Hashed: a run truncated by the cap is a different
	// result.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// WallClockMS caps real time for every kind: the executor turns it
	// into a deadline on the run's context, and a run past it fails with
	// sim.ErrCanceled. NOT hashed: it is an execution budget — a run that
	// completed under any wall-clock budget produced the same result it
	// would have produced under any other.
	WallClockMS int64 `json:"wall_clock_ms,omitempty"`

	// Faults configures deterministic fault injection.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Inject overrides the profile's bug injection (demonstration
	// programs; also carried by KindBaseline so baselines of injected
	// profiles stay distinct).
	Inject *trace.Inject `json:"inject,omitempty"`
}

// canonicalVersion versions the canonical encoding. Bumping it (or
// changing the canonical field set) invalidates every content hash — and
// therefore every disk cache — which is exactly why the golden-hash test
// exists: such a change must be deliberate.
const canonicalVersion = 1

// canonical is the hashed shadow of Spec: every hashed field explicit (no
// omitempty, so absent and zero are the same bytes), in frozen declaration
// order, WallClockMS excluded. encoding/json marshals struct fields in
// declaration order, making the encoding deterministic.
type canonical struct {
	V                    int           `json:"v"`
	Kind                 string        `json:"kind"`
	Benchmark            string        `json:"benchmark"`
	Monitor              string        `json:"monitor"`
	Accel                string        `json:"accel"`
	Core                 string        `json:"core"`
	AppCores             int           `json:"app_cores"`
	MonCores             int           `json:"mon_cores"`
	SMT                  bool          `json:"smt"`
	Seed                 uint64        `json:"seed"`
	Instrs               uint64        `json:"instrs"`
	WarmupInstrs         uint64        `json:"warmup_instrs"`
	EventQueueCap        int           `json:"event_queue_cap"`
	UnfilteredCap        int           `json:"unfiltered_cap"`
	MDCacheBytes         int           `json:"md_cache_bytes"`
	BlockingSignalCycles int           `json:"blocking_signal_cycles"`
	TimelineEvery        uint64        `json:"timeline_every"`
	CheckInvariants      bool          `json:"check_invariants"`
	FastForward          bool          `json:"fast_forward"`
	MaxCycles            uint64        `json:"max_cycles"`
	Faults               *fault.Plan   `json:"faults"`
	Inject               *trace.Inject `json:"inject"`
}

// Normalize returns the spec with documented defaults folded in, so that
// an explicitly-spelled default and an omitted field describe the same run
// and hash identically. It never clears a set field.
func (s Spec) Normalize() Spec {
	if s.Core == "" {
		s.Core = Core4Way
	}
	if s.Instrs == 0 {
		s.Instrs = 400_000
	}
	if s.Kind == KindRun {
		if s.Accel == "" {
			s.Accel = AccelFADE
		}
		if s.EventQueueCap == 0 {
			s.EventQueueCap = 32
		}
		if s.UnfilteredCap == 0 {
			s.UnfilteredCap = 16
		}
		// The zero topology is the paper's single dual-threaded SMT core.
		if s.AppCores == 0 && s.MonCores == 0 && !s.SMT {
			s.AppCores, s.SMT = 1, true
		} else if s.AppCores == 0 {
			s.AppCores = 1
		}
	}
	if s.Faults != nil && s.Faults.Empty() && s.Faults.Seed == 0 {
		s.Faults = nil
	}
	if s.Inject != nil && *s.Inject == (trace.Inject{}) {
		s.Inject = nil
	}
	return s
}

// DefaultMaxCycles is the cycle cap a run gets when its spec leaves
// MaxCycles at 0: 100 cycles per application instruction, a safety net
// no completing run comes near.
func DefaultMaxCycles(instrs uint64) uint64 { return instrs * 100 }

// CycleCap returns the simulated-time cap a run of s executes under:
// MaxCycles when set, otherwise DefaultMaxCycles of the (normalized)
// instruction budget. Normalize does not fold it in, because MaxCycles is
// hashed as given.
func (s Spec) CycleCap() uint64 {
	if s.MaxCycles > 0 {
		return s.MaxCycles
	}
	return DefaultMaxCycles(s.Normalize().Instrs)
}

// Validate rejects specs whose enumerated fields are outside the
// vocabulary. It does not check benchmark/monitor existence — that is the
// executing layer's concern (it owns the registries).
func (s Spec) Validate() error {
	switch s.Kind {
	case KindRun, KindStudy, KindCoreModel, KindBaseline:
	default:
		return fmt.Errorf("runspec: unknown kind %q", s.Kind)
	}
	if s.Benchmark == "" {
		return fmt.Errorf("runspec: missing benchmark")
	}
	switch s.Accel {
	case "", AccelNone, AccelBlocking, AccelFADE:
	default:
		return fmt.Errorf("runspec: unknown accel %q (want none|blocking|fade)", s.Accel)
	}
	switch s.Core {
	case "", CoreInOrder, Core2Way, Core4Way:
	default:
		return fmt.Errorf("runspec: unknown core %q (want inorder|2way|4way)", s.Core)
	}
	return nil
}

// CanonicalBytes returns the deterministic canonical encoding of the
// normalized spec: versioned, every hashed field explicit, WallClockMS
// excluded. Two specs describing the same run produce identical bytes.
func (s Spec) CanonicalBytes() []byte {
	n := s.Normalize()
	b, err := json.Marshal(canonical{
		V:                    canonicalVersion,
		Kind:                 n.Kind,
		Benchmark:            n.Benchmark,
		Monitor:              n.Monitor,
		Accel:                n.Accel,
		Core:                 n.Core,
		AppCores:             n.AppCores,
		MonCores:             n.MonCores,
		SMT:                  n.SMT,
		Seed:                 n.Seed,
		Instrs:               n.Instrs,
		WarmupInstrs:         n.WarmupInstrs,
		EventQueueCap:        n.EventQueueCap,
		UnfilteredCap:        n.UnfilteredCap,
		MDCacheBytes:         n.MDCacheBytes,
		BlockingSignalCycles: n.BlockingSignalCycles,
		TimelineEvery:        n.TimelineEvery,
		CheckInvariants:      n.CheckInvariants,
		FastForward:          n.FastForward,
		MaxCycles:            n.MaxCycles,
		Faults:               n.Faults,
		Inject:               n.Inject,
	})
	if err != nil {
		// canonical contains only marshalable field types; this cannot
		// fail for any constructible Spec.
		panic("runspec: canonical encoding failed: " + err.Error())
	}
	return b
}

// Hash returns the spec's content address: the SHA-256 of its canonical
// bytes. Equal runs hash equal; any field that can change the result (or
// its metrics dump) changes the hash.
func (s Spec) Hash() [32]byte {
	return sha256.Sum256(s.CanonicalBytes())
}

// HashString returns Hash as lowercase hex (the disk cache's file name).
func (s Spec) HashString() string {
	h := s.Hash()
	return hex.EncodeToString(h[:])
}
