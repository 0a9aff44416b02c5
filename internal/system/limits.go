package system

import (
	"fmt"
	"time"

	"fade/internal/mem"
	"fade/internal/monitor"
)

// RunLimits bounds one run's resource consumption. The zero value imposes
// only the legacy Config.MaxCycles safety net.
type RunLimits struct {
	// MaxCycles caps simulated time. When non-zero it overrides
	// Config.MaxCycles; a run that reaches the cap aborts with
	// sim.ErrCycleCapExceeded instead of completing.
	MaxCycles uint64
	// WallClock caps real time across the whole run, unmonitored baselines
	// included. A run past the watchdog aborts with sim.ErrCanceled at the
	// next scheduler checkpoint. 0 disables the watchdog.
	WallClock time.Duration
}

// validate rejects nonsensical limits (a defensive hook: the zero value and
// any positive values are fine, so today this cannot fail — it exists so
// future fields inherit a validation point).
func (l RunLimits) validate() error { return nil }

// deadline converts the wall-clock budget into an absolute deadline.
func (l RunLimits) deadline(now time.Time) time.Time {
	if l.WallClock <= 0 {
		return time.Time{}
	}
	return now.Add(l.WallClock)
}

// validate reports whether cfg describes a runnable system, checking
// everything the constructors would otherwise panic on: topology shape,
// queue capacities, metadata-cache geometry, the monitor name, the fault
// plan, and the run limits.
//
// Zero values that select documented defaults (queue capacities,
// instruction budget, cycle cap) are valid.
func (cfg Config) validate() error {
	if err := cfg.Topology.normalize().validate(); err != nil {
		return err
	}
	if cfg.EventQueueCap < 0 {
		return fmt.Errorf("system: event queue capacity must be positive (or 0 for the default 32), got %d", cfg.EventQueueCap)
	}
	if cfg.UnfilteredCap < 0 {
		return fmt.Errorf("system: unfiltered queue capacity must be positive (or 0 for the default 16), got %d", cfg.UnfilteredCap)
	}
	if cfg.MDCacheBytes < 0 {
		return fmt.Errorf("system: metadata cache size must be positive (or 0 for the default 4 KB), got %d", cfg.MDCacheBytes)
	}
	if cfg.MDCacheBytes > 0 {
		geom := mem.MDCacheConfig
		geom.SizeBytes = cfg.MDCacheBytes
		if err := geom.Validate(); err != nil {
			return err
		}
	}
	if cfg.BlockingSignalCycles < -1 {
		return fmt.Errorf("system: blocking signal latency must be >= -1, got %d", cfg.BlockingSignalCycles)
	}
	if cfg.Monitor != "" {
		if _, err := monitor.New(cfg.Monitor, 1); err != nil {
			return err
		}
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	return cfg.Limits.validate()
}

// validateQueueCap rejects capacities queue.NewBounded would panic on; used
// by entry points whose capacity has no zero-default (the queue study).
// queue.Unbounded is a large positive value and passes.
func validateQueueCap(name string, cap int) error {
	if cap <= 0 {
		return fmt.Errorf("system: %s capacity must be positive or queue.Unbounded, got %d", name, cap)
	}
	return nil
}
