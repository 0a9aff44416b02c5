// Package fade is a simulation-backed reproduction of FADE, the
// programmable filtering accelerator for instruction-grain monitoring of
// Fytraki et al. (HPCA 2014). It provides:
//
//   - the accelerator microarchitecture itself (event table, invariant
//     register file, filter logic, MD cache and M-TLB, stack-update unit,
//     and the non-blocking extensions: MD update logic and filter store
//     queue),
//   - five instruction-grain monitors (AddrCheck, MemCheck, TaintCheck,
//     MemLeak, AtomCheck) with functional metadata semantics, detection
//     reports, and software cost models,
//   - a deterministic cycle-level simulation substrate: application/monitor
//     core timing models (in-order, 2-way OoO, 4-way OoO, dual-threaded
//     SMT), a cache hierarchy, bounded event queues, and calibrated
//     synthetic workloads standing in for SPEC CPU2006 / SPLASH-2 / PARSEC,
//   - the full experiment harness regenerating every table and figure of
//     the paper's evaluation, and
//   - a 40nm area/power model reproducing the Section 7.6 estimates.
//
// # Quick start
//
// A Spec describes one run; Exec simulates it. Zero fields select the
// paper's evaluation configuration (non-blocking FADE on a single
// dual-threaded 4-way OoO core with 32/16-entry queues).
//
//	out, err := fade.Exec(ctx, fade.Spec{Benchmark: "astar", Monitor: "MemLeak", Seed: 1})
//	if err != nil { ... }
//	res := out.Result
//	fmt.Printf("slowdown %.2fx, filter ratio %.1f%%\n",
//	    res.Slowdown, 100*res.Filter.FilterRatio())
//
// See examples/ for runnable programs and DESIGN.md for the experiment
// index.
package fade

import (
	"context"
	"fmt"
	"io"

	"fade/internal/core"
	"fade/internal/experiments"
	"fade/internal/fault"
	"fade/internal/isa"
	"fade/internal/metadata"
	"fade/internal/monitor"
	"fade/internal/obs"
	"fade/internal/queue"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/sim"
	"fade/internal/spans"
	"fade/internal/synth"
	"fade/internal/system"
	"fade/internal/trace"
)

// Describing and running simulations.
type (
	// Spec describes one simulation: its kind (a full-system run by
	// default, or KindStudy for the Section 3 queue study), benchmark,
	// monitor, and every knob that shapes the run. Zero fields select
	// documented defaults, except Seed, which is used as given. Equal runs
	// — however they were spelled — hash equal, and Spec.Hash() is the
	// identity results are cached under.
	Spec = runspec.Spec
	// Outcome is what Exec returns: Result for a full-system run, Study for
	// a queue study.
	Outcome = system.Outcome
	// Option configures one Exec call.
	Option = system.Option
	// Result is the outcome of one full-system simulation. Its Config
	// field is the Spec it ran: normalized, with WallClockMS cleared.
	Result = system.Result
	// QueueStudy is the Section 3 characterization result (monitored load
	// and queue occupancy under an ideal 1-event/cycle drain).
	QueueStudy = system.QueueStudy
	// CoreResult is one application core's sub-result of a CMP run.
	CoreResult = system.CoreResult
)

// Spec vocabulary: kinds, acceleration modes and core models.
const (
	// KindStudy selects the Section 3 queue study: an ideal
	// 1-event/cycle drain behind an event queue of EventQueueCap entries.
	KindStudy = runspec.KindStudy

	AccelNone     = runspec.AccelNone     // every event handled in software
	AccelBlocking = runspec.AccelBlocking // baseline FADE (Section 4)
	AccelFADE     = runspec.AccelFADE     // FADE with Non-Blocking Filtering (Section 5)

	CoreInOrder = runspec.CoreInOrder
	Core2Way    = runspec.Core2Way
	Core4Way    = runspec.Core4Way
)

// UnboundedQueue requests an effectively infinite event queue in a
// KindStudy spec (the Section 3.2 analysis).
const UnboundedQueue = queue.Unbounded

// Exec simulates the run s describes. The simulation polls ctx at
// checkpoint intervals: a canceled run (or one past Spec.WallClockMS)
// aborts with an error wrapping ErrCanceled, and its partial Result —
// metrics snapshot intact — comes back in the Outcome alongside the error.
// A Trace carried by ctx (TraceContext) receives the run's cycle-domain
// spans.
func Exec(ctx context.Context, s Spec, opts ...Option) (*Outcome, error) {
	return system.ExecSpec(ctx, s, opts...)
}

// WithMonitor runs the spec under a caller-supplied (custom) monitor in
// place of the built-in one Spec.Monitor names. The monitor must be fresh
// (its internal state is mutated) and the spec must have a single
// application core.
func WithMonitor(m Monitor) Option { return system.WithMonitor(m) }

// Execution hardening: structured abort reasons and deterministic fault
// injection. A run that does not complete returns the partial Result
// alongside an error wrapping exactly one of the sentinel errors below.
type (
	// FaultPlan configures deterministic fault injection (Spec.Faults).
	FaultPlan = fault.Plan
	// FaultStall parameterizes monitor stall-burst injection.
	FaultStall = fault.Stall
	// FaultPressure parameterizes queue-capacity pressure injection.
	FaultPressure = fault.Pressure
	// FaultDrop parameterizes event-drop probes.
	FaultDrop = fault.Drop
	// FaultCorrupt parameterizes metadata-corruption probes.
	FaultCorrupt = fault.Corrupt
	// InvariantError names the violated invariant, the cycle, and detail; it
	// unwraps to ErrInvariantViolated.
	InvariantError = sim.InvariantError
)

// Abort sentinels, matchable with errors.Is.
var (
	// ErrCanceled: the run's context was canceled (or its wall-clock limit
	// expired), at a scheduler checkpoint or while the run waited on
	// another caller's computation of a shared result.
	ErrCanceled = sim.ErrCanceled
	// ErrCycleCapExceeded: the run hit its cycle cap before completing.
	ErrCycleCapExceeded = sim.ErrCycleCapExceeded
	// ErrInvariantViolated: the invariant checker (Spec.CheckInvariants)
	// observed a broken microarchitectural invariant.
	ErrInvariantViolated = sim.ErrInvariantViolated
)

// StallSeverity returns the named monitor-stall fault plan ("none", "mild",
// "moderate", "severe"); ok is false for unknown names.
func StallSeverity(name string) (*FaultPlan, bool) { return fault.StallSeverity(name) }

// StallSeverities lists the stall severity names in increasing order.
func StallSeverities() []string { return fault.StallSeverities() }

// Monitors and workloads.
type (
	// Monitor is an instruction-grain monitoring tool. The five built-in
	// monitors are available through NewMonitor; custom monitors implement
	// this interface and run through WithMonitor (see
	// examples/watchpoint for a complete user-defined monitor).
	Monitor = monitor.Monitor
	// MonitorKind distinguishes memory-tracking from propagation-tracking
	// analyses.
	MonitorKind = monitor.Kind
	// HandleCtx carries execution context into a software handler.
	HandleCtx = monitor.HandleCtx
	// HandleResult is the outcome of one software handler execution.
	HandleResult = monitor.HandleResult
	// HandlerClass categorizes a handler's path (clean check, redundant
	// update, complex, stack, high-level).
	HandlerClass = monitor.Class
	// Report is one detection raised by a monitor.
	Report = monitor.Report
	// Profile parameterizes a synthetic benchmark.
	Profile = trace.Profile
	// Inject configures deliberate bugs for demonstration programs.
	Inject = trace.Inject
)

// Monitor kinds.
const (
	MemoryTracking      = monitor.MemoryTracking
	PropagationTracking = monitor.PropagationTracking
)

// Handler classes for HandleResult.Class.
const (
	ClassCC    = monitor.ClassCC
	ClassRU    = monitor.ClassRU
	ClassSlow  = monitor.ClassSlow
	ClassStack = monitor.ClassStack
	ClassHigh  = monitor.ClassHigh
)

// NewMonitor constructs one of the built-in monitors: "AddrCheck",
// "MemCheck", "TaintCheck", "MemLeak", or "AtomCheck" (threads matters only
// for AtomCheck).
func NewMonitor(name string, threads int) (Monitor, error) { return monitor.New(name, threads) }

// MonitorNames lists the built-in monitors in the paper's order.
func MonitorNames() []string { return monitor.Names() }

// Benchmarks lists the serial (SPEC-style) benchmark profile names.
func Benchmarks() []string { return trace.SerialNames() }

// ParallelBenchmarks lists the multithreaded benchmark profile names.
func ParallelBenchmarks() []string { return trace.ParallelNames() }

// TaintBenchmarks lists the taint-propagating benchmarks used by TaintCheck.
func TaintBenchmarks() []string { return trace.TaintNames() }

// LookupProfile returns a registered benchmark profile.
func LookupProfile(name string) (*Profile, bool) { return trace.Lookup(name) }

// TraceSource yields a synthetic dynamic instruction stream.
type TraceSource = trace.Source

// NewTraceSource builds a deterministic instruction stream for the profile
// (limit 0 means unbounded).
func NewTraceSource(prof *Profile, seed, limit uint64) TraceSource {
	return trace.New(prof, seed, limit)
}

// TraceReader replays a recorded trace file as a TraceSource.
type TraceReader = trace.Reader

// RecordTrace generates instrs instructions of the named profile and writes
// them to w in the compact binary trace format, returning the record count.
func RecordTrace(w io.Writer, profileName string, seed, instrs uint64) (uint64, error) {
	prof, ok := trace.Lookup(profileName)
	if !ok {
		return 0, fmt.Errorf("fade: unknown profile %q", profileName)
	}
	return trace.Record(w, prof.Name, trace.New(prof, seed, instrs), 0)
}

// OpenTrace parses a recorded trace for replay.
func OpenTrace(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// Accelerator-level API, for users who want to program the filtering unit
// directly rather than run whole-system simulations.
type (
	// Entry is one event-table entry (Fig. 6b).
	Entry = core.Entry
	// OperandRule is the per-operand portion of an entry.
	OperandRule = core.OperandRule
	// FilteringUnit is the FADE accelerator.
	FilteringUnit = core.FilteringUnit
	// Unfiltered is an event forwarded to software.
	Unfiltered = core.Unfiltered
	// Programmer is the configuration surface for installing filter rules.
	Programmer = core.Programmer
	// Event is the record the application enqueues per monitored event.
	Event = isa.Event
	// Instr is one dynamic instruction.
	Instr = isa.Instr
	// MetadataState bundles the shadow memory and register metadata.
	MetadataState = metadata.State
)

// NewMetadataState returns empty metadata state.
func NewMetadataState() *MetadataState { return metadata.NewState() }

// Instruction/event vocabulary, for custom monitors and trace consumers.
type (
	// Op classifies a dynamic instruction.
	Op = isa.Op
	// EventKind distinguishes instruction, stack-update, and high-level
	// events.
	EventKind = isa.EventKind
	// Reg names an architectural integer register.
	Reg = isa.Reg
	// RUOp selects the redundant-update composition of an event-table
	// entry.
	RUOp = core.RUOp
	// NBKind selects the MD-update rule applied to unfilterable events.
	NBKind = core.NBKind
)

// Operation classes.
const (
	OpNop      = isa.OpNop
	OpALU      = isa.OpALU
	OpFPALU    = isa.OpFPALU
	OpLoad     = isa.OpLoad
	OpStore    = isa.OpStore
	OpBranch   = isa.OpBranch
	OpJmpReg   = isa.OpJmpReg
	OpCall     = isa.OpCall
	OpRet      = isa.OpRet
	OpMalloc   = isa.OpMalloc
	OpFree     = isa.OpFree
	OpTaintSrc = isa.OpTaintSrc
)

// Event kinds.
const (
	EvInstr     = isa.EvInstr
	EvStackCall = isa.EvStackCall
	EvStackRet  = isa.EvStackRet
	EvHighLevel = isa.EvHighLevel
)

// RegNone marks an absent operand; NumRegs is the integer register count.
const (
	RegNone = isa.RegNone
	NumRegs = isa.NumRegs
)

// Redundant-update compositions.
const (
	RUNone   = core.RUNone
	RUDirect = core.RUDirect
	RUOr     = core.RUOr
	RUAnd    = core.RUAnd
)

// MD-update rules for non-blocking filtering.
const (
	NBNone          = core.NBNone
	NBPropS1        = core.NBPropS1
	NBPropS2        = core.NBPropS2
	NBOr            = core.NBOr
	NBAnd           = core.NBAnd
	NBConst         = core.NBConst
	NBCondConstOr   = core.NBCondConstOr
	NBCondPropConst = core.NBCondPropConst
	NBCondDestProp  = core.NBCondDestProp
)

// NewFilteringUnit builds a FADE accelerator in the given mode
// ("non-blocking" unless blocking is true) over md, with fresh 32/16-entry
// queues. It returns the unit together with its event and unfiltered
// queues.
func NewFilteringUnit(blocking bool, md *MetadataState) (*FilteringUnit, *EventQueue, *UnfilteredQueue) {
	mode := core.NonBlocking
	if blocking {
		mode = core.Blocking
	}
	evq := queue.NewBounded[isa.Event](32)
	ufq := queue.NewBounded[core.Unfiltered](16)
	fu := core.New(core.DefaultConfig(mode), md, evq, ufq, nil)
	return fu, evq, ufq
}

// Queue types used by the accelerator-level API.
type (
	// EventQueue decouples the application from the accelerator.
	EventQueue = queue.Bounded[isa.Event]
	// UnfilteredQueue decouples the accelerator from the monitor.
	UnfilteredQueue = queue.Bounded[core.Unfiltered]
)

// Experiments and reporting.
type (
	// ExperimentTable is one regenerated figure or table.
	ExperimentTable = experiments.Table
	// ExperimentOptions control simulation scale.
	ExperimentOptions = experiments.Options
	// ExperimentCell is one enumerated cell of an experiment: its table
	// label and the canonical spec that simulates it.
	ExperimentCell = experiments.Cell
)

// The content-addressed result store.
type (
	// ResultCache memoizes completed runs by spec hash: a bounded memory
	// LRU, optionally backed by a crash-safe on-disk store that fadebench
	// sweeps and fadeserve daemons can share.
	ResultCache = rcache.Cache
)

// OpenResultCache opens a result cache holding up to memEntries recent
// results in memory (0 selects the default), persisted under dir; an
// empty dir keeps the cache purely in memory. The directory's contents
// survive crashes and are shared safely by concurrent processes.
func OpenResultCache(dir string, memEntries int) (*ResultCache, error) {
	return rcache.New(rcache.Options{MemEntries: memEntries, Dir: dir})
}

// ExperimentCells enumerates the experiment's cells — every (label,
// spec) pair it would simulate — without running anything.
func ExperimentCells(id string, o ExperimentOptions) ([]ExperimentCell, error) {
	return experiments.CellsFor(id, o)
}

// Observability: every simulation run carries a metrics registry whose
// end-of-run snapshot (and optional cycle-sampled timeline) is exported
// through these types. docs/METRICS.md documents the metric name space.
type (
	// MetricsSnapshot is a flattened, name-sorted view of a run's metrics
	// registry.
	MetricsSnapshot = obs.Snapshot
	// MetricValue is one exported sample of a snapshot.
	MetricValue = obs.Value
	// LabeledSnapshot pairs a snapshot with exposition labels for
	// WriteMetrics.
	LabeledSnapshot = obs.LabeledSnapshot
	// MetricLabel is one exposition label (key="value").
	MetricLabel = obs.Label
	// CellMetrics is one experiment cell's telemetry, attached to
	// ExperimentTable.Cells.
	CellMetrics = experiments.CellMetrics
)

// WriteMetrics renders labeled snapshots in the Prometheus text exposition
// format. Output is byte-deterministic for a given input.
func WriteMetrics(w io.Writer, snaps []LabeledSnapshot) error {
	return obs.WritePrometheus(w, snaps)
}

// WriteTimeline emits cycle-sampled snapshots as JSONL, one object per
// sample, tagged with the given cell identifier.
func WriteTimeline(w io.Writer, cell string, points []*MetricsSnapshot) error {
	return obs.WriteTimeline(w, cell, points)
}

// Trace is a per-run span trace (see docs/TRACING.md): a fixed-capacity
// ring of wall-clock spans (serving and CLI path) and cycle-domain spans
// (emitted inside the simulator when the run's context carries the trace).
// A nil *Trace is inert — every method is a no-op — so tracing costs one
// nil check when disabled.
type Trace = spans.Trace

// NewTrace builds a trace with the given id and ring capacity (<= 0 selects
// the default). Pass it to Exec via TraceContext, then export with
// WriteChromeTrace or WriteTraceJSONL.
func NewTrace(id string, capacity int) *Trace { return spans.New(id, capacity) }

// TraceContext returns ctx carrying tr. Exec detects the trace and
// emits cycle-domain spans into it: fast-forward jumps, fault bursts, queue
// full/drain episodes, monitor-behind intervals, and checkpoint polls.
// Cycle-domain emission is deterministic per (seed, config, flags).
func TraceContext(ctx context.Context, tr *Trace) context.Context {
	return spans.NewContext(ctx, tr)
}

// WriteChromeTrace exports tr as Chrome trace-event JSON, loadable directly
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Cycle-domain tracks
// map one simulated cycle to one microsecond.
func WriteChromeTrace(w io.Writer, tr *Trace) error { return spans.WriteChromeJSON(w, tr) }

// WriteTraceJSONL exports tr as one span per line, for jq-style analysis.
func WriteTraceJSONL(w io.Writer, tr *Trace) error { return spans.WriteJSONL(w, tr) }

// RunExperiment regenerates one paper artifact by id (see ExperimentIDs).
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	return experiments.ByID(id, o)
}

// RunAllExperiments regenerates every paper artifact in order.
func RunAllExperiments(o ExperimentOptions) ([]*ExperimentTable, error) {
	return experiments.All(o)
}

// ExperimentIDs lists the regenerable artifacts.
func ExperimentIDs() []string { return experiments.IDs() }

// SynthReport renders the Section 7.6 area/power estimate.
func SynthReport() string { return synth.Report() }
