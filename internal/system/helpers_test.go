package system

import (
	"context"

	"fade/internal/cpu"
)

// defaultConfig is the paper's evaluation configuration: non-blocking FADE
// on a single dual-threaded 4-way OoO core with 32/16-entry queues
// (Sections 6 and 7.2), seed 1 — the Config ExecSpec derives from a spec
// naming only the monitor and Seed 1.
func defaultConfig(monitorName string) Config {
	return Config{
		Core:          cpu.OoO4,
		Topology:      SingleCoreSMT,
		Accel:         FADENonBlocking,
		Monitor:       monitorName,
		EventQueueCap: 32,
		UnfilteredCap: 16,
		Seed:          1,
		Instrs:        400_000,
	}
}

// run simulates bench under cfg with the built-in monitor it names.
func run(bench string, cfg Config) (*Result, error) {
	return runSystem(context.Background(), bench, cfg, nil)
}

// cmpTopology is the scaled-out evaluation topology: n application cores,
// each paired with a dedicated monitor core (Fig. 8a replicated n times).
// cmpTopology(1) == TwoCore.
func cmpTopology(n int) Topology { return Topology{AppCores: n, MonCores: n} }
