// Package system assembles complete monitoring systems and runs them: the
// single-core dual-threaded and two-core topologies of Fig. 8, each either
// unaccelerated or FADE-enabled (blocking or non-blocking), over the
// calibrated benchmark profiles. It produces the slowdown, filtering, queue
// and utilization statistics behind every figure and table of the paper's
// evaluation.
//
// # Running
//
// A runspec.Spec describes every run; ExecSpec is the one executor. Its
// options add a user-defined monitor (WithMonitor) or route execution
// through the content-addressed result cache (WithCache), the path every
// cached caller — fadebench sweeps, fabric workers, fadeserve — shares.
// The simulator reads the normalized spec directly; Result.Config reports
// it back (WallClockMS cleared), and Labels names its system for reports.
//
// # Observability
//
// Every run owns an obs.Registry: the assembled components (application
// core, monitor core, filtering unit, queues) register as collectors, and
// the run loop adds the sim.* counters and end-of-run summary gauges
// (sim.slowdown, IPCs, utilization fractions). The final snapshot lands in
// Result.Metrics; setting Spec.TimelineEvery additionally records a
// cycle-sampled timeline in Result.Timeline. The typed Result fields are
// conveniences over this uniform metric surface — docs/METRICS.md is the
// reference for the name space.
package system
