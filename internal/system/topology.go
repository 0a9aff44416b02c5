package system

import "fmt"

// Topology describes the system organization as a CMP of identical
// application cores, each with its own private filtering unit and event
// queues (the paper's Fig. 8 scaled out per Section 7: FADE is a per-core
// block). Monitoring software runs either in the second hardware thread of
// each application core (SMT, Fig. 8b) or on dedicated monitor cores
// (Fig. 8a), with monitor threads assigned to monitor cores round-robin.
//
// Topology is comparable: the two historical organizations are the package
// variables SingleCoreSMT and TwoCore, and configs may be compared against
// them with ==.
type Topology struct {
	// AppCores is the number of application cores. 0 normalizes to 1.
	AppCores int
	// MonCores is the number of dedicated monitor cores; it must be 0 when
	// SMT is set and between 1 and AppCores otherwise. A monitor core
	// serving several application cores is fine-grained multithreaded
	// between their monitor threads.
	MonCores int
	// SMT runs each monitor thread in the second hardware thread of its
	// application core instead of on a dedicated core.
	SMT bool
}

// The two historical organizations of Fig. 8. These are variables only
// because struct values cannot be constants; do not reassign them.
var (
	// SingleCoreSMT runs application and monitor in dedicated hardware
	// threads of one fine-grained dual-threaded core (Fig. 8b).
	SingleCoreSMT = Topology{AppCores: 1, SMT: true}
	// TwoCore runs them on separate cores (Fig. 8a).
	TwoCore = Topology{AppCores: 1, MonCores: 1}
)

func (t Topology) String() string {
	switch t.normalize() {
	case SingleCoreSMT:
		return "single-core"
	case TwoCore:
		return "two-core"
	}
	if t.SMT {
		return fmt.Sprintf("%d-core-smt", t.AppCores)
	}
	return fmt.Sprintf("%d+%d-core", t.AppCores, t.MonCores)
}

// normalize maps the zero value to the historical default (SingleCoreSMT —
// Topology was once an enum whose zero value selected it) and defaults
// AppCores to 1.
func (t Topology) normalize() Topology {
	if t == (Topology{}) {
		return SingleCoreSMT
	}
	if t.AppCores == 0 {
		t.AppCores = 1
	}
	return t
}

// validate rejects organizations the system layer cannot wire.
func (t Topology) validate() error {
	if t.AppCores < 1 {
		return fmt.Errorf("system: topology needs at least one application core, got %d", t.AppCores)
	}
	if t.SMT {
		if t.MonCores != 0 {
			return fmt.Errorf("system: SMT topology hosts monitor threads on the application cores; MonCores must be 0, got %d", t.MonCores)
		}
		return nil
	}
	if t.MonCores < 1 {
		return fmt.Errorf("system: non-SMT topology needs at least one monitor core")
	}
	if t.MonCores > t.AppCores {
		return fmt.Errorf("system: %d monitor cores for %d application cores; extra monitor cores would sit idle", t.MonCores, t.AppCores)
	}
	return nil
}

// monCoreOf returns the dedicated monitor core serving application core i
// (round-robin; meaningless under SMT).
func (t Topology) monCoreOf(i int) int {
	return i % t.MonCores
}

// coreSeed derives application core i's trace seed from the config seed.
// Core 0 uses the seed unchanged, so a 1-core topology reproduces the
// single-core instruction stream exactly; higher cores perturb it with a
// splitmix-style odd constant so the multiprogrammed copies decorrelate.
func coreSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}
