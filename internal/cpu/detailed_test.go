package cpu

import (
	"context"
	"errors"
	"testing"

	"fade/internal/sim"
	"fade/internal/trace"
)

func detIPC(t *testing.T, kind Kind, bench string, instrs uint64) float64 {
	t.Helper()
	prof, ok := trace.Lookup(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	cycles, retired, err := RunDetailed(context.Background(), kind, trace.New(prof, 1, instrs), 1, instrs*200)
	if err != nil {
		t.Fatalf("%s: %v", bench, err)
	}
	if retired != instrs {
		t.Fatalf("%s: retired %d of %d", bench, retired, instrs)
	}
	return float64(retired) / float64(cycles)
}

// TestRunDetailedHonoursCanceledContext: a canceled context stops the
// detailed core at its first checkpoint, before any cycle executes.
func TestRunDetailedHonoursCanceledContext(t *testing.T) {
	prof, _ := trace.Lookup("astar")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cycles, retired, err := RunDetailed(ctx, OoO4, trace.New(prof, 1, 60_000), 1, 60_000*200)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	if cycles != 0 || retired != 0 {
		t.Fatalf("canceled run executed %d cycles, retired %d", cycles, retired)
	}
}

func TestDetailedIPCBounded(t *testing.T) {
	for _, kind := range Kinds() {
		ipc := detIPC(t, kind, "hmmer", 60_000)
		if ipc <= 0 || ipc > kind.Width() {
			t.Fatalf("%v IPC %.2f outside (0, width]", kind, ipc)
		}
	}
}

func TestDetailedWidthOrdering(t *testing.T) {
	io := detIPC(t, InOrder, "astar", 60_000)
	w2 := detIPC(t, OoO2, "astar", 60_000)
	w4 := detIPC(t, OoO4, "astar", 60_000)
	if !(io < w2 && w2 < w4) {
		t.Fatalf("IPC not monotone in width: %.2f, %.2f, %.2f", io, w2, w4)
	}
}

// TestDetailedCrossValidatesRateModel: the dependency-driven model and the
// calibrated rate model must agree on the workload extremes — mcf is the
// memory-bound outlier, bzip/hmmer/gobmk are the fast regular codes — even
// though they derive timing completely differently.
func TestDetailedCrossValidatesRateModel(t *testing.T) {
	benches := []string{"astar", "bzip", "gobmk", "hmmer", "libq", "mcf", "omnet"}
	det := map[string]float64{}
	for _, b := range benches {
		det[b] = detIPC(t, OoO4, b, 80_000)
	}
	for _, b := range benches {
		if b != "mcf" && det[b] <= det["mcf"] {
			t.Errorf("detailed model: %s IPC %.2f <= mcf %.2f; mcf must be the memory-bound minimum", b, det[b], det["mcf"])
		}
	}
	if det["mcf"] > 1.0 {
		t.Errorf("detailed model: mcf IPC %.2f not memory-bound", det["mcf"])
	}
	if det["bzip"] < 1.1 && det["gobmk"] < 1.1 {
		t.Errorf("detailed model: fast codes too slow: bzip %.2f gobmk %.2f", det["bzip"], det["gobmk"])
	}
}

func TestDetailedDeterminism(t *testing.T) {
	a := detIPC(t, OoO4, "gcc", 40_000)
	b := detIPC(t, OoO4, "gcc", 40_000)
	if a != b {
		t.Fatalf("non-deterministic: %.6f vs %.6f", a, b)
	}
}

func TestDetailedROBSizes(t *testing.T) {
	if OoO2.ROBSize() != 48 || OoO4.ROBSize() != 96 {
		t.Fatal("ROB sizes do not match Table 1")
	}
	if InOrder.ROBSize() <= 0 {
		t.Fatal("in-order window not positive")
	}
}
