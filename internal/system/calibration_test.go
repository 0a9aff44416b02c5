package system

import (
	"context"
	"testing"

	"fade/internal/queue"
	"fade/internal/runspec"
	"fade/internal/stats"
	"fade/internal/trace"
)

// Calibration tests pin the simulated systems to the paper's reported
// statistics (DESIGN.md §5). Bands are deliberately loose: the claim is
// shape, not cycle-exactness. These are the guardrails that keep future
// changes from silently drifting away from the reproduced results.

func benchesFor(mon string) []string {
	switch mon {
	case "AtomCheck":
		return trace.ParallelNames()
	case "TaintCheck":
		return trace.TaintNames()
	default:
		return trace.SerialNames()
	}
}

func suiteAverages(t *testing.T, mon string, accel string, instrs uint64) (slow float64, filter float64) {
	t.Helper()
	var slows, filters []float64
	for _, bench := range benchesFor(mon) {
		spec := defaultSpec(mon)
		spec.Accel = accel
		spec.Instrs = instrs
		r, err := run(bench, spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", mon, bench, err)
		}
		slows = append(slows, r.Slowdown)
		if r.Filter != nil {
			filters = append(filters, r.Filter.FilterRatio())
		}
	}
	return stats.AMean(slows), stats.AMean(filters)
}

// TestCalibrationTable2 pins the filtering efficiencies of Table 2:
// AddrCheck 99.5%, AtomCheck 85.5%, MemCheck 98%, MemLeak 87%, TaintCheck
// 84% — all within the paper's 84-99% span.
func TestCalibrationTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	bands := map[string][2]float64{
		"AddrCheck":  {0.97, 1.001},
		"AtomCheck":  {0.72, 0.93},
		"MemCheck":   {0.94, 1.001},
		"MemLeak":    {0.80, 0.95},
		"TaintCheck": {0.75, 0.96}, // taint density ramps with run length; 0.90 at 300K instrs
	}
	for mon, band := range bands {
		_, filter := suiteAverages(t, mon, runspec.AccelFADE, 120_000)
		if filter < band[0] || filter > band[1] {
			t.Errorf("%s filter ratio %.3f outside [%v,%v] (paper Table 2)", mon, filter, band[0], band[1])
		}
	}
}

// TestCalibrationFig9 pins the headline slowdowns: unaccelerated 1.6-7.4x
// per monitor averaging ~4.1x; FADE 1.2-1.8x averaging ~1.5x.
func TestCalibrationFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	type band struct{ lo, hi float64 }
	unaccBands := map[string]band{
		"AddrCheck":  {1.2, 2.4},
		"AtomCheck":  {2.7, 5.5},
		"MemCheck":   {4.0, 8.0},
		"MemLeak":    {5.5, 10.0},
		"TaintCheck": {4.0, 8.5},
	}
	fadeBands := map[string]band{
		"AddrCheck":  {1.0, 1.5},
		"AtomCheck":  {1.4, 3.2},
		"MemCheck":   {1.1, 2.2},
		"MemLeak":    {1.5, 3.2},
		"TaintCheck": {1.4, 3.4},
	}
	var unaccAll, fadeAll []float64
	for mon, b := range unaccBands {
		slow, _ := suiteAverages(t, mon, runspec.AccelNone, 120_000)
		unaccAll = append(unaccAll, slow)
		if slow < b.lo || slow > b.hi {
			t.Errorf("%s unaccelerated slowdown %.2f outside [%v,%v]", mon, slow, b.lo, b.hi)
		}
		fb := fadeBands[mon]
		fslow, _ := suiteAverages(t, mon, runspec.AccelFADE, 120_000)
		fadeAll = append(fadeAll, fslow)
		if fslow < fb.lo || fslow > fb.hi {
			t.Errorf("%s FADE slowdown %.2f outside [%v,%v]", mon, fslow, fb.lo, fb.hi)
		}
	}
	if avg := stats.AMean(unaccAll); avg < 3.2 || avg > 6.5 {
		t.Errorf("overall unaccelerated average %.2f (paper ~4.1x)", avg)
	}
	if avg := stats.AMean(fadeAll); avg < 1.2 || avg > 2.6 {
		t.Errorf("overall FADE average %.2f (paper ~1.5x)", avg)
	}
}

// TestCalibrationMonitoredIPC pins Fig. 2: AddrCheck's monitored IPC
// averages ~0.24 and stays well below 1.0; MemLeak averages ~0.68 with
// bzip above 1.0 and mcf at ~0.2.
func TestCalibrationMonitoredIPC(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	var addr, leak []float64
	perBench := map[string]float64{}
	for _, bench := range trace.SerialNames() {
		a, err := study(context.Background(), bench, "AddrCheck", queue.Unbounded, 1, 120_000)
		if err != nil {
			t.Fatal(err)
		}
		m, err := study(context.Background(), bench, "MemLeak", queue.Unbounded, 1, 120_000)
		if err != nil {
			t.Fatal(err)
		}
		addr = append(addr, a.MonitoredIPC)
		leak = append(leak, m.MonitoredIPC)
		perBench[bench] = m.MonitoredIPC
	}
	if avg := stats.AMean(addr); avg < 0.12 || avg > 0.45 {
		t.Errorf("AddrCheck monitored IPC avg %.2f (paper ~0.24)", avg)
	}
	if avg := stats.AMean(leak); avg < 0.45 || avg > 0.95 {
		t.Errorf("MemLeak monitored IPC avg %.2f (paper ~0.68)", avg)
	}
	if perBench["bzip"] <= 1.0 {
		t.Errorf("bzip monitored IPC %.2f not above 1.0 (paper ~1.2)", perBench["bzip"])
	}
	if perBench["mcf"] > 0.45 {
		t.Errorf("mcf monitored IPC %.2f too high (paper ~0.2)", perBench["mcf"])
	}
	for bench, v := range perBench {
		if bench != "bzip" && v > 1.0 {
			t.Errorf("%s monitored IPC %.2f above 1.0; only bzip exceeds 1.0 in the paper", bench, v)
		}
	}
}

// TestCalibrationBurstiness pins Fig. 3's occupancy story: omnetpp needs
// thousands of entries, mcf only tens.
func TestCalibrationBurstiness(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	om, err := study(context.Background(), "omnet", "MemLeak", queue.Unbounded, 1, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	if om.MaxOccupancy < 500 {
		t.Errorf("omnet max occupancy %d; paper needs ~8K entries", om.MaxOccupancy)
	}
	mc, err := study(context.Background(), "mcf", "MemLeak", queue.Unbounded, 1, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	if mc.MaxOccupancy > 256 {
		t.Errorf("mcf max occupancy %d; paper fits in ~128 entries", mc.MaxOccupancy)
	}
}

// TestCalibrationUnfilteredBursts pins Fig. 4(b,c): unfiltered events come
// in short bursts separated by mostly-filterable stretches.
func TestCalibrationUnfilteredBursts(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	spec := defaultSpec("MemLeak")
	spec.Instrs = 120_000
	r, err := run("gobmk", spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Filter.BurstSizes.Total() == 0 {
		t.Fatal("no bursts recorded")
	}
	if mean := r.Filter.BurstSizes.Mean(); mean > 64 {
		t.Errorf("mean burst size %.1f; paper reports <=16 for most pairs", mean)
	}
}
