package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/system"
)

// seedBody is a submission body for astar/MemLeak under seed; distinct
// seeds are distinct specs, equal seeds coalesce when a cache is set.
func seedBody(seed uint64) string {
	return fmt.Sprintf(`{"benchmark":"astar","monitor":"MemLeak","seed":%d}`, seed)
}

// fillQueue submits fresh runs (seeds from seed upwards) until the
// admission queue holds its capacity. Each submission is given time to be
// dequeued before the depth is read, so the fill holds whether or not a
// popped run waits outside the queue. It returns the next unused seed.
func fillQueue(t *testing.T, srv *Server, seed uint64) uint64 {
	t.Helper()
	for srv.sched.q.depth() < srv.sched.opts.QueueCap {
		if w := do(t, srv.Handler(), "POST", "/v1/runs", seedBody(seed), nil); w.Code != http.StatusAccepted {
			t.Fatalf("fill seed %d: status %d (body %s)", seed, w.Code, w.Body.String())
		}
		seed++
		time.Sleep(20 * time.Millisecond)
	}
	return seed
}

// oldestQueued returns the queued run the load shedder evicts first.
func oldestQueued(q *fairQueue) *Run {
	q.mu.Lock()
	defer q.mu.Unlock()
	var best *Run
	for _, fifo := range q.tenants {
		if best == nil || fifo[0].seq < best.seq {
			best = fifo[0]
		}
	}
	return best
}

// TestShedCoalescedPrimaryShedsFollowers sheds a queued run that carries
// a coalesced duplicate: the duplicate is shed with it instead of taking
// the freed slot, so the fresh submission that caused the shed is
// admitted.
func TestShedCoalescedPrimaryShedsFollowers(t *testing.T) {
	var pressure atomic.Bool
	gate := newGateRunner()
	srv := New(Options{Workers: 1, QueueCap: 1, Cache: rcache.NewMem(16), Runner: gate.run, MemPressure: pressure.Load})
	defer srv.Close()
	defer close(gate.release)
	h := srv.Handler()

	if w := do(t, h, "POST", "/v1/runs", seedBody(1), nil); w.Code != http.StatusAccepted {
		t.Fatalf("A status = %d, want 202", w.Code)
	}
	<-gate.started
	next := fillQueue(t, srv, 2)
	victim := oldestQueued(srv.sched.q)
	if victim == nil {
		t.Fatal("no queued run after filling the queue")
	}
	wd := do(t, h, "POST", "/v1/runs", seedBody(victim.Spec.Seed), nil)
	if wd.Code != http.StatusAccepted {
		t.Fatalf("duplicate status = %d, want 202", wd.Code)
	}
	if got := srv.sched.met.runsCoalesced.Value(); got != 1 {
		t.Fatalf("serve.runs.coalesced = %d, want 1", got)
	}
	dup := decodeInfo(t, wd).ID

	pressure.Store(true)
	we := do(t, h, "POST", "/v1/runs", seedBody(next), nil)
	if we.Code != http.StatusAccepted {
		t.Fatalf("fresh submission under pressure: status %d, want 202 (body %s)", we.Code, we.Body.String())
	}
	for _, id := range []string{victim.ID, dup} {
		info := decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil))
		if info.State != StateShed || !strings.HasPrefix(info.Error, "load shed") {
			t.Fatalf("run %s = %q (error %q), want shed", id, info.State, info.Error)
		}
	}
	if got := srv.sched.met.runsShed.Value(); got != 2 {
		t.Fatalf("serve.runs.shed = %d, want 2 (victim and its duplicate)", got)
	}
}

// TestShedSkipsCoalescedSubmission: under memory pressure, a submission
// that coalesces onto a running run takes no queue slot, so it sheds
// nothing.
func TestShedSkipsCoalescedSubmission(t *testing.T) {
	var pressure atomic.Bool
	gate := newGateRunner()
	srv := New(Options{Workers: 1, QueueCap: 1, Cache: rcache.NewMem(16), Runner: gate.run, MemPressure: pressure.Load})
	defer srv.Close()
	defer close(gate.release)
	h := srv.Handler()

	do(t, h, "POST", "/v1/runs", seedBody(1), nil)
	<-gate.started
	fillQueue(t, srv, 2)
	queued := oldestQueued(srv.sched.q).ID
	pressure.Store(true)
	if w := do(t, h, "POST", "/v1/runs", seedBody(1), nil); w.Code != http.StatusAccepted {
		t.Fatalf("duplicate status = %d, want 202", w.Code)
	}
	if got := srv.sched.met.runsCoalesced.Value(); got != 1 {
		t.Fatalf("serve.runs.coalesced = %d, want 1", got)
	}
	if got := decodeInfo(t, do(t, h, "GET", "/v1/runs/"+queued, "", nil)).State; got != StateQueued {
		t.Fatalf("queued run state = %q after a coalesced submission, want queued", got)
	}
	if got := srv.sched.met.runsShed.Value(); got != 0 {
		t.Fatalf("serve.runs.shed = %d, want 0", got)
	}
}

// failRunner fails every mcf run once failNow is closed and otherwise
// behaves like the gate runner.
type failRunner struct {
	*gateRunner
	failNow chan struct{}
}

func newFailRunner() *failRunner {
	return &failRunner{gateRunner: newGateRunner(), failNow: make(chan struct{})}
}

func (f *failRunner) run(ctx context.Context, s runspec.Spec, opts ...system.Option) (*system.Outcome, error) {
	if s.Benchmark != "mcf" {
		return f.gateRunner.run(ctx, s, opts...)
	}
	f.started <- s.Benchmark
	select {
	case <-f.failNow:
		return nil, errors.New("mcf exploded")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

const mcfBody = `{"benchmark":"mcf","monitor":"MemLeak"}`

// TestPromotionQueueFullCascades fails a running primary while the
// admission queue is full: its promoted follower fails with the
// promotion message, and that follower's own followers cascade the same
// way.
func TestPromotionQueueFullCascades(t *testing.T) {
	fr := newFailRunner()
	srv := New(Options{Workers: 1, QueueCap: 1, Cache: rcache.NewMem(16), Runner: fr.run})
	defer srv.Close()
	defer close(fr.release)
	h := srv.Handler()

	primary := decodeInfo(t, do(t, h, "POST", "/v1/runs", mcfBody, nil)).ID
	<-fr.started
	var followers []string
	for i := 0; i < 2; i++ {
		w := do(t, h, "POST", "/v1/runs", mcfBody, nil)
		if w.Code != http.StatusAccepted {
			t.Fatalf("follower %d status = %d, want 202", i, w.Code)
		}
		followers = append(followers, decodeInfo(t, w).ID)
	}
	fillQueue(t, srv, 2)
	rejects := srv.sched.met.queueRejects.Value()

	close(fr.failNow)
	eventually(t, "primary to fail", func() bool {
		return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+primary, "", nil)).State == StateFailed
	})
	for _, id := range followers {
		info := decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil))
		if info.State != StateFailed || info.Error != "admission queue full at promotion" {
			t.Fatalf("follower %s = %q (error %q), want failed at promotion", id, info.State, info.Error)
		}
	}
	if got := srv.sched.met.queueRejects.Value() - rejects; got != 2 {
		t.Fatalf("promotion rejects = %d, want 2", got)
	}
	if got := srv.sched.met.runsFailed.Value(); got != 3 {
		t.Fatalf("serve.runs.failed = %d, want 3", got)
	}
}

// TestPromotionDuringDrainCancels fails a running primary after drain
// has closed admission: its follower cannot be queued and ends canceled
// with the draining message.
func TestPromotionDuringDrainCancels(t *testing.T) {
	fr := newFailRunner()
	srv := New(Options{Workers: 1, Cache: rcache.NewMem(16), Runner: fr.run})
	defer srv.Close()
	h := srv.Handler()

	primary := decodeInfo(t, do(t, h, "POST", "/v1/runs", mcfBody, nil)).ID
	<-fr.started
	follower := decodeInfo(t, do(t, h, "POST", "/v1/runs", mcfBody, nil)).ID
	if got := srv.sched.met.runsCoalesced.Value(); got != 1 {
		t.Fatalf("serve.runs.coalesced = %d, want 1", got)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.sched.Drain(context.Background()) }()
	eventually(t, "drain to begin", srv.sched.Draining)
	close(fr.failNow)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return")
	}
	if got := srv.sched.Info(srv.sched.Get(primary)).State; got != StateFailed {
		t.Fatalf("primary state = %q, want failed", got)
	}
	info := srv.sched.Info(srv.sched.Get(follower))
	if info.State != StateCanceled || info.Error != "server is draining; submissions are rejected" {
		t.Fatalf("follower = %q (error %q), want canceled by the drain", info.State, info.Error)
	}
}

// TestCanceledQueuedPrimaryPromotes cancels a queued primary with DELETE:
// its follower is promoted into the queue and executes itself.
func TestCanceledQueuedPrimaryPromotes(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, QueueCap: 4, Cache: rcache.NewMem(16), Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()

	a := decodeInfo(t, do(t, h, "POST", "/v1/runs", seedBody(1), nil)).ID
	<-gate.started
	primary := decodeInfo(t, do(t, h, "POST", "/v1/runs", mcfBody, nil)).ID
	follower := decodeInfo(t, do(t, h, "POST", "/v1/runs", mcfBody, nil)).ID
	if got := srv.sched.met.runsCoalesced.Value(); got != 1 {
		t.Fatalf("serve.runs.coalesced = %d, want 1", got)
	}

	w := do(t, h, "DELETE", "/v1/runs/"+primary, "", nil)
	if w.Code != http.StatusOK || decodeInfo(t, w).State != StateCanceled {
		t.Fatalf("DELETE queued primary: status %d body %s", w.Code, w.Body.String())
	}
	if got := decodeInfo(t, do(t, h, "GET", "/v1/runs/"+follower, "", nil)).State; got != StateQueued {
		t.Fatalf("follower state after promotion = %q, want queued", got)
	}
	close(gate.release)
	select {
	case bench := <-gate.started:
		if bench != "mcf" {
			t.Fatalf("next run started %q, want the promoted mcf follower", bench)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("promoted follower never started executing")
	}
	for _, id := range []string{a, follower} {
		eventually(t, id+" to finish", func() bool {
			return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil)).State == StateDone
		})
	}
	if info := decodeInfo(t, do(t, h, "GET", "/v1/runs/"+follower, "", nil)); info.Cached {
		t.Fatal("promoted follower reported cached=true; it executed itself")
	}
}
