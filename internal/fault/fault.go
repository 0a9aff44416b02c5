package fault

import (
	"fmt"
	"strings"
)

// Plan describes the faults to inject into one run. A nil *Plan (or the
// zero Plan) injects nothing. Plans are pure descriptions — they carry no
// state and may be shared between runs and goroutines; each run derives its
// own Engine (and RNG streams) from the plan, so the same (seed, Plan) pair
// always reproduces the same perturbation schedule.
type Plan struct {
	// Seed seeds the injector RNG streams. 0 borrows the run's own seed,
	// so a default plan still decorrelates across experiment seeds.
	Seed uint64

	// MonitorStall freezes the monitor thread in bursts: the thread
	// receives no cycles while a burst is active (a slow or descheduled
	// software monitor), so unfiltered events back up through the UFQ into
	// the accelerator and, eventually, the application core.
	MonitorStall *Stall

	// MEQPressure temporarily shrinks the effective capacity of the
	// monitored event queue (bursty co-runners stealing queue SRAM,
	// paper §queue sizing stress).
	MEQPressure *Pressure

	// UFQPressure does the same for the unfiltered event queue.
	UFQPressure *Pressure

	// EventDrop silently discards monitored events at the MEQ boundary
	// with the given probability. The system must detect the loss: drops
	// are counted, surfaced under fault.*, and reconciled by the invariant
	// checker's event-conservation check.
	EventDrop *Drop

	// MDCorruption flips bits in shadow metadata at random intervals,
	// probing whether monitors and the checker observe perturbed state
	// rather than silently absorbing it.
	MDCorruption *Corrupt
}

// Stall parameterizes monitor-stall bursts. Inter-arrival gaps and burst
// durations are geometrically distributed around their means, matching the
// burst model used elsewhere in the trace generator.
type Stall struct {
	// MeanGap is the mean number of cycles between bursts (>= 1).
	MeanGap float64
	// MeanDuration is the mean burst length in cycles (>= 1).
	MeanDuration float64
	// Start is the first cycle at which a burst may begin.
	Start uint64
}

// Pressure parameterizes queue-capacity pressure bursts.
type Pressure struct {
	// MeanGap is the mean number of cycles between pressure bursts (>= 1).
	MeanGap float64
	// MeanDuration is the mean burst length in cycles (>= 1).
	MeanDuration float64
	// CapFactor scales the queue's effective capacity during a burst,
	// in (0, 1]; the result is floored at one entry so forward progress
	// remains possible.
	CapFactor float64
	// Start is the first cycle at which a burst may begin.
	Start uint64
}

// Drop parameterizes the event-drop probe.
type Drop struct {
	// Rate is the per-event drop probability in [0, 1].
	Rate float64
	// Start is the first cycle at which events may be dropped.
	Start uint64
}

// Corrupt parameterizes the metadata-corruption probe.
type Corrupt struct {
	// MeanGap is the mean number of cycles between corruptions (>= 1).
	MeanGap float64
	// Start is the first cycle at which a corruption may fire.
	Start uint64
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (p.MonitorStall == nil && p.MEQPressure == nil &&
		p.UFQPressure == nil && p.EventDrop == nil && p.MDCorruption == nil)
}

// Validate rejects plans the engine cannot execute deterministically.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if s := p.MonitorStall; s != nil {
		if s.MeanGap < 1 || s.MeanDuration < 1 {
			return fmt.Errorf("fault: monitor-stall gap/duration means must be >= 1 cycle, got %g/%g", s.MeanGap, s.MeanDuration)
		}
	}
	for _, q := range []struct {
		name string
		pr   *Pressure
	}{{"meq", p.MEQPressure}, {"ufq", p.UFQPressure}} {
		if q.pr == nil {
			continue
		}
		if q.pr.MeanGap < 1 || q.pr.MeanDuration < 1 {
			return fmt.Errorf("fault: %s-pressure gap/duration means must be >= 1 cycle, got %g/%g", q.name, q.pr.MeanGap, q.pr.MeanDuration)
		}
		if q.pr.CapFactor <= 0 || q.pr.CapFactor > 1 {
			return fmt.Errorf("fault: %s-pressure capacity factor must be in (0, 1], got %g", q.name, q.pr.CapFactor)
		}
	}
	if d := p.EventDrop; d != nil {
		if d.Rate < 0 || d.Rate > 1 {
			return fmt.Errorf("fault: event-drop rate must be in [0, 1], got %g", d.Rate)
		}
	}
	if c := p.MDCorruption; c != nil {
		if c.MeanGap < 1 {
			return fmt.Errorf("fault: md-corruption mean gap must be >= 1 cycle, got %g", c.MeanGap)
		}
	}
	return nil
}

// StallSeverity returns a monitor-stall plan at one of the named severity
// levels used by the fault-sweep experiment ("none", "mild", "moderate",
// "severe"). It returns nil for "none" and false for an unknown level.
func StallSeverity(level string) (*Plan, bool) {
	switch level {
	case "none":
		return nil, true
	case "mild":
		return &Plan{MonitorStall: &Stall{MeanGap: 4096, MeanDuration: 64}}, true
	case "moderate":
		return &Plan{MonitorStall: &Stall{MeanGap: 2048, MeanDuration: 256}}, true
	case "severe":
		return &Plan{MonitorStall: &Stall{MeanGap: 1024, MeanDuration: 1024}}, true
	}
	return nil, false
}

// StallSeverities lists the sweep levels in increasing severity order.
func StallSeverities() []string { return []string{"none", "mild", "moderate", "severe"} }

// Knobs is the flat, name-based form of a Plan: the one fault vocabulary
// shared by fadeserve's "faults" request body and fadesim's -fault-* flags.
// The zero value injects nothing.
type Knobs struct {
	// Seed seeds the injector RNG streams (0 borrows the run seed).
	Seed uint64 `json:"seed,omitempty"`
	// Stall is a monitor-stall severity name (StallSeverities); "" and
	// "none" inject no stalls.
	Stall string `json:"stall,omitempty"`
	// MEQPressure / UFQPressure shrink the effective queue capacity by
	// this factor in (0,1] during pressure bursts.
	MEQPressure float64 `json:"meq_pressure,omitempty"`
	UFQPressure float64 `json:"ufq_pressure,omitempty"`
	// DropRate silently drops monitored events with this probability.
	DropRate float64 `json:"drop_rate,omitempty"`
	// CorruptGap is the mean cycle gap between metadata bit flips (0
	// disables corruption).
	CorruptGap float64 `json:"corrupt_gap,omitempty"`
}

// pressureShape is the burst timing every knob-configured pressure fault
// uses; the knob sets only the capacity factor.
var pressureShape = Pressure{MeanGap: 2048, MeanDuration: 256}

// Plan maps the knobs onto a fault plan: nil when they inject nothing and
// set no seed, an error for an unknown stall severity.
func (k Knobs) Plan() (*Plan, error) {
	plan := &Plan{Seed: k.Seed}
	if k.Stall != "" && k.Stall != "none" {
		sp, ok := StallSeverity(k.Stall)
		if !ok {
			return nil, fmt.Errorf("fault: unknown stall severity %q (want %s)", k.Stall, strings.Join(StallSeverities(), "|"))
		}
		plan.MonitorStall = sp.MonitorStall
	}
	if k.MEQPressure > 0 {
		p := pressureShape
		p.CapFactor = k.MEQPressure
		plan.MEQPressure = &p
	}
	if k.UFQPressure > 0 {
		p := pressureShape
		p.CapFactor = k.UFQPressure
		plan.UFQPressure = &p
	}
	if k.DropRate > 0 {
		plan.EventDrop = &Drop{Rate: k.DropRate}
	}
	if k.CorruptGap > 0 {
		plan.MDCorruption = &Corrupt{MeanGap: k.CorruptGap}
	}
	if plan.Empty() && plan.Seed == 0 {
		return nil, nil
	}
	return plan, nil
}
