package system

import (
	"context"

	"fade/internal/runspec"
)

// defaultSpec is the paper's evaluation configuration with every default
// spelled out: non-blocking FADE on a single dual-threaded 4-way OoO core
// with 32/16-entry queues (Sections 6 and 7.2), seed 1 — what Normalize
// derives from a spec naming only the monitor and seed 1.
func defaultSpec(monitorName string) runspec.Spec {
	return runspec.Spec{
		Monitor:       monitorName,
		Accel:         runspec.AccelFADE,
		Core:          runspec.Core4Way,
		AppCores:      1,
		SMT:           true,
		EventQueueCap: 32,
		UnfilteredCap: 16,
		Seed:          1,
		Instrs:        400_000,
	}
}

// run executes s on bench with the built-in monitor it names. An aborted
// run returns its partial Result with the error.
func run(bench string, s runspec.Spec) (*Result, error) {
	return runCtx(context.Background(), bench, s)
}

// runCtx is run under ctx.
func runCtx(ctx context.Context, bench string, s runspec.Spec) (*Result, error) {
	s.Benchmark = bench
	out, err := ExecSpec(ctx, s)
	if out == nil {
		return nil, err
	}
	return out.Result, err
}

// setCMP gives s the scaled-out evaluation topology: n application cores,
// each paired with a dedicated monitor core (Fig. 8a replicated n times).
// setCMP(s, 1) is the paper's two-core system.
func setCMP(s *runspec.Spec, n int) {
	s.AppCores, s.MonCores, s.SMT = n, n, false
}

// study executes the Section 3 queue study of bench under mon with an
// event queue of queueCap entries.
func study(ctx context.Context, bench, mon string, queueCap int, seed, instrs uint64) (*QueueStudy, error) {
	out, err := ExecSpec(ctx, runspec.Spec{Kind: runspec.KindStudy, Benchmark: bench, Monitor: mon,
		EventQueueCap: queueCap, Seed: seed, Instrs: instrs})
	if err != nil {
		return nil, err
	}
	return out.Study, nil
}
