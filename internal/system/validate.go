package system

import (
	"fmt"

	"fade/internal/mem"
	"fade/internal/monitor"
	"fade/internal/runspec"
)

// validateRun reports whether a normalized KindRun spec describes a
// runnable system, checking everything the constructors would otherwise
// panic on: topology shape, queue capacities, metadata-cache geometry, the
// monitor name and the fault plan.
//
// Zero values that select documented defaults (metadata cache size,
// signal latency) are valid.
func validateRun(s runspec.Spec) error {
	switch {
	case s.AppCores < 1:
		return fmt.Errorf("system: topology needs at least one application core, got %d", s.AppCores)
	case s.SMT && s.MonCores != 0:
		return fmt.Errorf("system: SMT topology hosts monitor threads on the application cores; MonCores must be 0, got %d", s.MonCores)
	case !s.SMT && s.MonCores < 1:
		return fmt.Errorf("system: non-SMT topology needs at least one monitor core")
	case !s.SMT && s.MonCores > s.AppCores:
		return fmt.Errorf("system: %d monitor cores for %d application cores; extra monitor cores would sit idle", s.MonCores, s.AppCores)
	}
	if s.EventQueueCap < 0 {
		return fmt.Errorf("system: event queue capacity must be positive (or 0 for the default 32), got %d", s.EventQueueCap)
	}
	if s.UnfilteredCap < 0 {
		return fmt.Errorf("system: unfiltered queue capacity must be positive (or 0 for the default 16), got %d", s.UnfilteredCap)
	}
	if s.MDCacheBytes < 0 {
		return fmt.Errorf("system: metadata cache size must be positive (or 0 for the default 4 KB), got %d", s.MDCacheBytes)
	}
	if s.MDCacheBytes > 0 {
		geom := mem.MDCacheConfig
		geom.SizeBytes = s.MDCacheBytes
		if err := geom.Validate(); err != nil {
			return err
		}
	}
	if s.BlockingSignalCycles < -1 {
		return fmt.Errorf("system: blocking signal latency must be >= -1, got %d", s.BlockingSignalCycles)
	}
	if s.Monitor != "" {
		if _, err := monitor.New(s.Monitor, 1); err != nil {
			return err
		}
	}
	return s.Faults.Validate()
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
