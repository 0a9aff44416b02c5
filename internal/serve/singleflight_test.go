package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/system"
)

// TestSubmitCoalesces checks the serve-layer single-flight: two
// concurrent submissions of the same spec run the simulator exactly
// once — the second rides the first and settles with the identical
// result document marked "cached": true.
func TestSubmitCoalesces(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 2, Cache: rcache.NewMem(16), Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()

	submitWait := func() chan *httptest.ResponseRecorder {
		ch := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			ch <- do(t, h, "POST", "/v1/runs?wait=true", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
		}()
		return ch
	}

	primary := submitWait()
	<-gate.started // the primary is mid-execution
	follower := submitWait()

	// The follower must coalesce rather than start a second simulation.
	eventually(t, "follower to coalesce", func() bool {
		return srv.sched.met.runsCoalesced.Value() == 1
	})
	select {
	case bench := <-gate.started:
		t.Fatalf("second simulation started (%q); submissions did not coalesce", bench)
	default:
	}

	close(gate.release)
	wp, wf := <-primary, <-follower
	for _, w := range []*httptest.ResponseRecorder{wp, wf} {
		if w.Code != http.StatusOK {
			t.Fatalf("wait=true status = %d, want 200 (body %s)", w.Code, w.Body.String())
		}
	}
	pi, fi := decodeInfo(t, wp), decodeInfo(t, wf)
	if pi.State != StateDone || fi.State != StateDone {
		t.Fatalf("states = %q/%q, want done/done", pi.State, fi.State)
	}
	if pi.Cached {
		t.Fatal("primary reported cached=true; it should have executed")
	}
	if !fi.Cached {
		t.Fatal("coalesced follower reported cached=false")
	}
	if len(pi.Result) == 0 || !bytes.Equal(pi.Result, fi.Result) {
		t.Fatalf("follower result differs from primary\nprimary:  %s\nfollower: %s", pi.Result, fi.Result)
	}
	if got := srv.sched.met.runsSubmitted.Value(); got != 2 {
		t.Fatalf("serve.runs.submitted = %d, want 2", got)
	}
}

// TestCoalescedFollowerSurvivesPrimaryCancel checks the promotion path:
// when the primary is canceled before producing a result, the coalesced
// follower is promoted into a real queued run and still completes.
func TestCoalescedFollowerSurvivesPrimaryCancel(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, Cache: rcache.NewMem(16), Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()

	wp := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	if wp.Code != http.StatusAccepted {
		t.Fatalf("primary status = %d, want 202", wp.Code)
	}
	primaryID := decodeInfo(t, wp).ID
	<-gate.started

	followerCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		followerCh <- do(t, h, "POST", "/v1/runs?wait=true", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	}()
	eventually(t, "follower to coalesce", func() bool {
		return srv.sched.met.runsCoalesced.Value() == 1
	})

	if w := do(t, h, "DELETE", "/v1/runs/"+primaryID, "", nil); w.Code != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	// Promotion re-queues the follower; it must reach the runner itself.
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("promoted follower never started executing")
	}
	close(gate.release)

	wf := <-followerCh
	fi := decodeInfo(t, wf)
	if fi.State != StateDone {
		t.Fatalf("promoted follower state = %q (error %q), want done", fi.State, fi.Error)
	}
	if fi.Cached {
		t.Fatal("promoted follower reported cached=true; it executed itself")
	}
}

// TestRetryAfterComputed checks that queue_full 429s carry a computed
// Retry-After: the per-run cost estimate (1s floor before any run has
// executed) scaled by backlog, plus the deterministic {0,1,2}s jitter
// rotation — so three consecutive rejects see 2s, 3s, 1s.
func TestRetryAfterComputed(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, QueueCap: 1, Runner: gate.run})
	defer srv.Close()
	defer close(gate.release)
	h := srv.Handler()
	submit := func() *httptest.ResponseRecorder {
		return do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	}

	// A occupies the worker, B fills the queue.
	if w := submit(); w.Code != http.StatusAccepted {
		t.Fatalf("A status = %d, want 202", w.Code)
	}
	<-gate.started
	if w := submit(); w.Code != http.StatusAccepted {
		t.Fatalf("B status = %d, want 202", w.Code)
	}
	if d := srv.sched.q.depth(); d != 1 {
		t.Fatalf("queue depth = %d, want 1 (B)", d)
	}

	want := []string{"2", "3", "1"}
	for i, exp := range want {
		w := submit()
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("reject #%d status = %d, want 429 (body %s)", i+1, w.Code, w.Body.String())
		}
		if got := w.Header().Get("Retry-After"); got != exp {
			t.Fatalf("reject #%d Retry-After = %q, want %q", i+1, got, exp)
		}
	}
}

// TestPanickingRunFails checks that a run whose execution panics fails
// instead of staying running: its wait=true returns the failed record
// with the panic message, its coalesced follower is promoted into a run
// of its own on the freed worker slot, and a later resubmission executes
// rather than coalescing onto the dead run.
func TestPanickingRunFails(t *testing.T) {
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	runner := func(ctx context.Context, s runspec.Spec, opts ...system.Option) (*system.Outcome, error) {
		if calls.Add(1) == 1 {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			panic("runner exploded")
		}
		return instantRunner(ctx, s, opts...)
	}
	srv := New(Options{Workers: 1, Cache: rcache.NewMem(16), Runner: runner})
	defer srv.Close()
	h := srv.Handler()
	submitWait := func() chan *httptest.ResponseRecorder {
		ch := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			ch <- do(t, h, "POST", "/v1/runs?wait=true", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
		}()
		return ch
	}
	settled := func(what string, ch chan *httptest.ResponseRecorder) RunInfo {
		t.Helper()
		select {
		case w := <-ch:
			return decodeInfo(t, w)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: wait=true still blocked after 5s", what)
			return RunInfo{}
		}
	}

	primary := submitWait()
	<-started
	follower := submitWait()
	eventually(t, "follower to coalesce", func() bool {
		return srv.sched.met.runsCoalesced.Value() == 1
	})
	close(release)

	if pi := settled("panicked run", primary); pi.State != StateFailed || !strings.Contains(pi.Error, "runner exploded") {
		t.Fatalf("panicked run = %q (error %q), want failed with the panic message", pi.State, pi.Error)
	}
	if fi := settled("follower", follower); fi.State != StateDone || fi.Cached {
		t.Fatalf("follower = %q (cached %v), want done by its own execution", fi.State, fi.Cached)
	}
	if ri := settled("resubmission", submitWait()); ri.State != StateDone {
		t.Fatalf("resubmission state = %q (error %q), want done", ri.State, ri.Error)
	}
	if got := srv.sched.met.runsCoalesced.Value(); got != 1 {
		t.Fatalf("serve.runs.coalesced = %d, want 1 (only the follower)", got)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("runner ran %d times, want 3 (panicked run, follower, resubmission)", got)
	}
}
