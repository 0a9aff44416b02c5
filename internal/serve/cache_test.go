package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"fade/internal/rcache"
)

// cacheCounter reads one cache.* counter from the scheduler registry.
func cacheCounter(t *testing.T, srv *Server, name string) uint64 {
	t.Helper()
	for _, v := range srv.Scheduler().Registry().Snapshot().Values {
		if v.Name == name {
			return v.Count()
		}
	}
	t.Fatalf("%s missing from scheduler registry", name)
	return 0
}

// submitWait POSTs body with ?wait=true and decodes the terminal record.
func submitWait(t *testing.T, h http.Handler, body string) RunInfo {
	t.Helper()
	w := do(t, h, "POST", "/v1/runs?wait=true", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("submit %s: status %d: %s", body, w.Code, w.Body)
	}
	return decodeInfo(t, w)
}

// TestCachedResubmit: with Options.Cache set, resubmitting an identical
// run serves the stored result — it simulates once, the second envelope
// carries "cached": true, and the result documents are byte-identical.
func TestCachedResubmit(t *testing.T) {
	srv := New(Options{Workers: 1, Cache: rcache.NewMem(16)})
	defer srv.Close()
	h := srv.Handler()

	const body = `{"benchmark":"astar","monitor":"MemLeak","instrs":5000}`
	first := submitWait(t, h, body)
	if first.State != StateDone {
		t.Fatalf("first run state = %q, want done", first.State)
	}
	if first.Cached {
		t.Fatal("first run reported cached")
	}
	if got := cacheCounter(t, srv, "cache.misses"); got != 1 {
		t.Fatalf("simulations after first submit = %d, want 1", got)
	}

	w2 := do(t, h, "POST", "/v1/runs?wait=true", body, nil)
	second := decodeInfo(t, w2)
	if second.State != StateDone {
		t.Fatalf("second run state = %q, want done", second.State)
	}
	if !second.Cached {
		t.Fatal("second run not served from cache")
	}
	if got := cacheCounter(t, srv, "cache.misses"); got != 1 {
		t.Fatalf("simulations after resubmit = %d, want 1 (cache hit)", got)
	}
	if !strings.Contains(w2.Body.String(), `"cached":true`) {
		t.Fatalf("second envelope lacks cached flag: %s", w2.Body)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result differs:\n--- fresh\n%s\n--- cached\n%s", first.Result, second.Result)
	}

	// A different spec misses and simulates.
	if third := submitWait(t, h, `{"benchmark":"bzip","monitor":"MemLeak","instrs":5000}`); third.Cached {
		t.Fatal("distinct spec reported cached")
	}
	if got := cacheCounter(t, srv, "cache.misses"); got != 2 {
		t.Fatalf("simulations after distinct spec = %d, want 2", got)
	}
	if got := cacheCounter(t, srv, "cache.hits"); got != 1 {
		t.Fatalf("cache.hits = %d, want 1", got)
	}
}

// TestCacheMetricsCountMisses: N distinct and M repeated sequential
// submissions read back on /metrics as N misses and M hits.
func TestCacheMetricsCountMisses(t *testing.T) {
	srv := New(Options{Workers: 1, Cache: rcache.NewMem(16)})
	defer srv.Close()
	h := srv.Handler()

	const n, m = 3, 4
	body := func(seed int) string {
		return fmt.Sprintf(`{"benchmark":"astar","monitor":"AddrCheck","instrs":4000,"seed":%d}`, seed)
	}
	for i := 1; i <= n; i++ {
		if info := submitWait(t, h, body(i)); info.State != StateDone || info.Cached {
			t.Fatalf("distinct run %d: state %q cached %v", i, info.State, info.Cached)
		}
	}
	for i := 0; i < m; i++ {
		if info := submitWait(t, h, body(1+i%n)); info.State != StateDone || !info.Cached {
			t.Fatalf("repeated run %d: state %q cached %v", i, info.State, info.Cached)
		}
	}
	metrics := do(t, h, "GET", "/metrics", "", nil).Body.String()
	for _, want := range []string{
		fmt.Sprintf("fade_cache_misses %d\n", n),
		fmt.Sprintf("fade_cache_hits %d\n", m),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestFailedRunsNotCached: a run that fails (cycle cap) or is canceled
// (wall-clock budget) still returns its partial result document, and is
// never cached — resubmitting it executes again.
func TestFailedRunsNotCached(t *testing.T) {
	c := rcache.NewMem(16)
	srv := New(Options{Workers: 1, Cache: c})
	defer srv.Close()
	h := srv.Handler()

	// Warm the shared unmonitored baseline, so the aborting runs below stop
	// inside the monitored simulation and have partial results to flush.
	submitWait(t, h, `{"benchmark":"astar","monitor":"MemLeak","instrs":300000}`)
	misses, entries := c.Stats().Misses, c.Len()

	for _, tc := range []struct{ body, state string }{
		{`{"benchmark":"astar","monitor":"AddrCheck","instrs":300000,"limits":{"max_cycles":5000}}`, StateFailed},
		{`{"benchmark":"astar","monitor":"TaintCheck","instrs":300000,"limits":{"wall_clock_ms":1}}`, StateCanceled},
	} {
		for attempt := 0; attempt < 2; attempt++ {
			info := submitWait(t, h, tc.body)
			if info.State != tc.state || info.Cached {
				t.Fatalf("%s attempt %d: state %q cached %v, want %s uncached", tc.body, attempt, info.State, info.Cached, tc.state)
			}
			var view ResultView
			if err := json.Unmarshal(info.Result, &view); err != nil || !view.Aborted || len(view.Metrics) == 0 {
				t.Fatalf("%s attempt %d: partial result %s (%v)", tc.body, attempt, info.Result, err)
			}
		}
	}
	if st := c.Stats(); st.Misses != misses || c.Len() != entries {
		t.Fatalf("aborted runs were cached: %d misses, %d entries (before: %d, %d)", st.Misses, c.Len(), misses, entries)
	}
}
