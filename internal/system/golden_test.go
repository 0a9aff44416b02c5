package system

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fade/internal/obs"
	"fade/internal/runspec"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// TestGoldenMetrics pins the exact Prometheus dump of representative runs:
// the simulation is deterministic, so any change to component tick order,
// arbitration, or metric naming shows up as a byte-level diff against the
// committed testdata. Regenerate with `go test ./internal/system -run
// TestGoldenMetrics -update` — but only when a behavior change is intended.
func TestGoldenMetrics(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*runspec.Spec)
	}{
		{"single-smt-fade", func(c *runspec.Spec) {}},
		{"two-core-fade", func(c *runspec.Spec) { setCMP(c, 1) }},
		{"single-smt-unaccel", func(c *runspec.Spec) { c.Accel = runspec.AccelNone }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec := defaultSpec("MemLeak")
			tc.mutate(&spec)
			r, err := run("astar", spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := obs.WritePrometheus(&buf, []obs.LabeledSnapshot{{Snap: r.Metrics}}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".prom")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("metrics dump differs from %s (%d vs %d bytes); a tick-order or naming change leaked into existing topologies", path, buf.Len(), len(want))
			}
		})
	}
}
