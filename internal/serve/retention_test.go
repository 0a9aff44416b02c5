package serve

import (
	"context"
	"net/http"
	"testing"

	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/system"
)

// TestRunTableBounded fills the run table past maxTerminalRuns and checks
// that the oldest terminal runs are evicted (404 not_found) while a
// running primary and its queued follower stay, and that every retained
// terminal run's span ring has been sealed to the spans it holds.
func TestRunTableBounded(t *testing.T) {
	release := make(chan struct{})
	runner := func(ctx context.Context, spec runspec.Spec, opts ...system.Option) (*system.Outcome, error) {
		if spec.Benchmark == "mcf" {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return instantRunner(ctx, spec, opts...)
	}
	srv := New(Options{Workers: 2, Cache: rcache.NewMem(16), Runner: runner})
	defer srv.Close()
	s := srv.sched

	blocked := runspec.Spec{Benchmark: "mcf", Monitor: "MemLeak", Seed: 1}
	primary, err := s.Submit("t", blocked)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "primary to start", func() bool { return s.Info(primary).State == StateRunning })
	follower, err := s.Submit("t", blocked)
	if err != nil {
		t.Fatal(err)
	}
	if s.met.runsCoalesced.Value() != 1 {
		t.Fatal("follower did not coalesce onto the running primary")
	}

	const extra = 10
	var ids []string
	for i := 0; i < maxTerminalRuns+extra; i++ {
		r, err := s.Submit("t", runspec.Spec{Benchmark: "astar", Monitor: "MemLeak", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		<-r.done
		ids = append(ids, r.ID)
	}

	h := srv.Handler()
	for _, id := range ids[:extra] {
		if s.Get(id) != nil {
			t.Fatalf("terminal run %s not evicted", id)
		}
		w := do(t, h, "GET", "/v1/runs/"+id, "", nil)
		if w.Code != http.StatusNotFound || decodeErr(t, w).Code != ErrCodeNotFound {
			t.Fatalf("GET evicted run %s: status %d body %s", id, w.Code, w.Body.String())
		}
	}
	for _, id := range ids[extra:] {
		r := s.Get(id)
		if r == nil {
			t.Fatalf("run %s evicted within the bound", id)
		}
		if tr := r.trace; tr.Cap() != tr.Len() {
			t.Fatalf("run %s: trace not sealed (cap %d, %d spans)", id, tr.Cap(), tr.Len())
		}
	}
	if s.Get(primary.ID) == nil || s.Get(follower.ID) == nil {
		t.Fatal("a running primary or its queued follower was evicted")
	}
	if got := len(s.List("")); got != maxTerminalRuns+2 {
		t.Fatalf("List returned %d runs, want %d", got, maxTerminalRuns+2)
	}

	close(release)
	<-primary.done
	<-follower.done
	if s.Get(ids[extra]) != nil {
		t.Fatal("oldest retained terminal run not evicted when the primary finished")
	}
	if info := s.Info(follower); info.State != StateDone || !info.Cached {
		t.Fatalf("follower settled as %+v", info)
	}
}
