package system

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
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

// TestGoldenTimeline pins the cycle-sampled timeline of the paper's
// two-core system, the one place occupancy histograms are read mid-run.
// Both fast-forward modes must produce the committed points; the sim.ff.*
// series, simulator observability registered only under fast-forward, are
// dropped before comparing. Regenerate with `go test ./internal/system -run
// TestGoldenTimeline -update`, only when a behavior change is intended.
func TestGoldenTimeline(t *testing.T) {
	for _, ff := range []bool{false, true} {
		spec := defaultSpec("MemLeak")
		setCMP(&spec, 1)
		spec.Instrs = 60_000
		spec.TimelineEvery = 7_000
		spec.FastForward = ff
		r, err := run("astar", spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Timeline) < 3 {
			t.Fatalf("fast-forward %v: %d timeline points, want several", ff, len(r.Timeline))
		}
		for _, p := range r.Timeline {
			kept := p.Values[:0]
			for _, v := range p.Values {
				if !strings.HasPrefix(v.Name, "sim.ff.") {
					kept = append(kept, v)
				}
			}
			p.Values = kept
		}
		var buf bytes.Buffer
		if err := obs.WriteTimeline(&buf, "", r.Timeline); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "two-core-fade.timeline.jsonl")
		if *updateGolden && !ff {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("fast-forward %v: timeline differs from %s (%d vs %d bytes)", ff, path, buf.Len(), len(want))
		}
	}
}
