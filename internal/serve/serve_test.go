package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fade/internal/obs"
	"fade/internal/runspec"
	"fade/internal/system"
)

// instantRunner completes immediately with a minimal result.
func instantRunner(_ context.Context, s runspec.Spec, _ ...system.Option) (*system.Outcome, error) {
	return &system.Outcome{Result: &system.Result{Benchmark: s.Benchmark, Instrs: s.Instrs}}, nil
}

// gateRunner blocks every run until release is closed (or its context is
// canceled); started receives one value per run that began executing.
type gateRunner struct {
	started chan string
	release chan struct{}
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (g *gateRunner) run(ctx context.Context, s runspec.Spec, _ ...system.Option) (*system.Outcome, error) {
	g.started <- s.Benchmark
	select {
	case <-g.release:
		return &system.Outcome{Result: &system.Result{Benchmark: s.Benchmark, Instrs: s.Instrs}}, nil
	case <-ctx.Done():
		return &system.Outcome{Result: &system.Result{Benchmark: s.Benchmark}}, ctx.Err()
	}
}

type errEnvelope struct {
	Error APIError `json:"error"`
}

func do(t *testing.T, h http.Handler, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func decodeErr(t *testing.T, w *httptest.ResponseRecorder) APIError {
	t.Helper()
	var env errEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("decoding error envelope from %q: %v", w.Body.String(), err)
	}
	return env.Error
}

func decodeInfo(t *testing.T, w *httptest.ResponseRecorder) RunInfo {
	t.Helper()
	var info RunInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatalf("decoding run info from %q: %v", w.Body.String(), err)
	}
	return info
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubmitErrors walks every handler error path with a table of bad
// submissions and checks both the HTTP status and the error code.
func TestSubmitErrors(t *testing.T) {
	srv := New(Options{
		Workers:       1,
		QueueCap:      4,
		DefaultInstrs: 5_000,
		Limits: Limits{
			MaxInstrs:         10_000,
			MaxCycles:         1_000_000,
			MaxWallClock:      time.Minute,
			MaxAppCores:       4,
			MaxTimelinePoints: 1_000,
		},
		Runner: instantRunner,
	})
	defer srv.Close()
	h := srv.Handler()

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"syntax error", `{`, http.StatusBadRequest, ErrCodeBadJSON},
		{"wrong type", `{"benchmark":7}`, http.StatusBadRequest, ErrCodeBadJSON},
		{"unknown field", `{"benchmark":"astar","monitor":"MemLeak","bogus":1}`, http.StatusBadRequest, ErrCodeBadJSON},
		{"missing benchmark", `{"monitor":"MemLeak"}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"unknown benchmark", `{"benchmark":"nope","monitor":"MemLeak"}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"missing monitor", `{"benchmark":"astar"}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"unknown monitor", `{"benchmark":"astar","monitor":"NopeCheck"}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"unknown accel", `{"benchmark":"astar","monitor":"MemLeak","accel":"warp"}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"unknown core", `{"benchmark":"astar","monitor":"MemLeak","core":"8way"}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"negative app_cores", `{"benchmark":"astar","monitor":"MemLeak","app_cores":-1}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"mon_cores without cmp", `{"benchmark":"astar","monitor":"MemLeak","mon_cores":2}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"negative wall clock", `{"benchmark":"astar","monitor":"MemLeak","limits":{"wall_clock_ms":-5}}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"bad stall severity", `{"benchmark":"astar","monitor":"MemLeak","faults":{"stall":"apocalyptic"}}`, http.StatusBadRequest, ErrCodeInvalidConfig},
		{"over-limit instrs", `{"benchmark":"astar","monitor":"MemLeak","instrs":20000}`, http.StatusUnprocessableEntity, ErrCodeLimitsExceeded},
		{"over-limit app_cores", `{"benchmark":"astar","monitor":"MemLeak","app_cores":8}`, http.StatusUnprocessableEntity, ErrCodeLimitsExceeded},
		{"over-limit max_cycles", `{"benchmark":"astar","monitor":"MemLeak","limits":{"max_cycles":2000000}}`, http.StatusUnprocessableEntity, ErrCodeLimitsExceeded},
		{"over-limit wall clock", `{"benchmark":"astar","monitor":"MemLeak","limits":{"wall_clock_ms":120000}}`, http.StatusUnprocessableEntity, ErrCodeLimitsExceeded},
		{"over-limit timeline", `{"benchmark":"astar","monitor":"MemLeak","timeline_every":1}`, http.StatusUnprocessableEntity, ErrCodeLimitsExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, h, "POST", "/v1/runs", tc.body, nil)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.wantStatus, w.Body.String())
			}
			if e := decodeErr(t, w); e.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q (message %q)", e.Code, tc.wantCode, e.Message)
			}
		})
	}

	// Control: a valid submission is accepted asynchronously with a
	// Location header.
	w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("valid submit status = %d, want 202 (body %s)", w.Code, w.Body.String())
	}
	info := decodeInfo(t, w)
	if got := w.Header().Get("Location"); got != "/v1/runs/"+info.ID {
		t.Fatalf("Location = %q, want %q", got, "/v1/runs/"+info.ID)
	}
}

// TestNotFoundPaths covers the 404 surfaces: unknown run ids on every
// run-scoped route and unmatched paths.
func TestNotFoundPaths(t *testing.T) {
	srv := New(Options{Workers: 1, Runner: instantRunner})
	defer srv.Close()
	h := srv.Handler()

	for _, tc := range []struct{ method, target string }{
		{"GET", "/v1/runs/r-999999"},
		{"DELETE", "/v1/runs/r-999999"},
		{"GET", "/v1/runs/r-999999/timeline"},
		{"GET", "/v1/nope"},
	} {
		w := do(t, h, tc.method, tc.target, "", nil)
		if w.Code != http.StatusNotFound {
			t.Fatalf("%s %s status = %d, want 404", tc.method, tc.target, w.Code)
		}
		if e := decodeErr(t, w); e.Code != ErrCodeNotFound {
			t.Fatalf("%s %s code = %q, want not_found", tc.method, tc.target, e.Code)
		}
	}
}

// TestQueueFull429 fills the admission queue behind a blocked worker and
// checks that the overflow submission gets 429 queue_full + Retry-After,
// while everything admitted still completes after release. The bound is
// exact: Workers running plus QueueCap queued.
func TestQueueFull429(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, QueueCap: 1, Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()
	submit := func() *httptest.ResponseRecorder {
		return do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	}

	// A occupies the single worker.
	wa := submit()
	if wa.Code != http.StatusAccepted {
		t.Fatalf("A status = %d, want 202", wa.Code)
	}
	<-gate.started
	// B fills the queue (capacity 1): no run waits outside it, so C must
	// be rejected.
	wb := submit()
	if wb.Code != http.StatusAccepted {
		t.Fatalf("B status = %d, want 202", wb.Code)
	}
	if d := srv.sched.q.depth(); d != 1 {
		t.Fatalf("queue depth = %d after B, want 1", d)
	}
	wc := submit()
	if wc.Code != http.StatusTooManyRequests {
		t.Fatalf("C status = %d, want 429 (body %s)", wc.Code, wc.Body.String())
	}
	if e := decodeErr(t, wc); e.Code != ErrCodeQueueFull {
		t.Fatalf("C code = %q, want queue_full", e.Code)
	}
	if wc.Header().Get("Retry-After") == "" {
		t.Fatal("429 queue_full response is missing Retry-After")
	}
	// The rejected run must not appear in the run table: one running, one
	// queued.
	if n := len(srv.sched.List("")); n != 2 {
		t.Fatalf("run table has %d entries after reject, want 2", n)
	}
	if n := len(srv.sched.List(StateQueued)); n != 1 {
		t.Fatalf("%d queued runs after reject, want 1", n)
	}

	close(gate.release)
	for _, w := range []*httptest.ResponseRecorder{wa, wb} {
		id := decodeInfo(t, w).ID
		eventually(t, id+" to finish", func() bool {
			return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil)).State == StateDone
		})
	}
}

// TestTenantThrottling checks the per-tenant token buckets: an exhausted
// tenant gets 429 throttled with Retry-After while other tenants submit
// freely, and tokens refill over (fake) time.
func TestTenantThrottling(t *testing.T) {
	// The clock is read by the scheduler's workers too, so it is atomic.
	var now atomic.Int64
	now.Store(time.Unix(1_000, 0).UnixNano())
	srv := New(Options{
		Workers:     1,
		TenantRate:  1,
		TenantBurst: 1,
		Runner:      instantRunner,
		Now:         func() time.Time { return time.Unix(0, now.Load()) },
	})
	defer srv.Close()
	h := srv.Handler()
	submit := func(key string) *httptest.ResponseRecorder {
		return do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`,
			map[string]string{"X-API-Key": key})
	}

	if w := submit("alice"); w.Code != http.StatusAccepted {
		t.Fatalf("alice #1 status = %d, want 202", w.Code)
	}
	w := submit("alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("alice #2 status = %d, want 429", w.Code)
	}
	if e := decodeErr(t, w); e.Code != ErrCodeThrottled {
		t.Fatalf("alice #2 code = %q, want throttled", e.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("throttled response is missing Retry-After")
	}
	// Another tenant is unaffected.
	if w := submit("bob"); w.Code != http.StatusAccepted {
		t.Fatalf("bob status = %d, want 202", w.Code)
	}
	// After a second of refill, alice can submit again.
	now.Add(int64(time.Second))
	if w := submit("alice"); w.Code != http.StatusAccepted {
		t.Fatalf("alice #3 status = %d, want 202 after refill", w.Code)
	}
}

// TestFairQueueRoundRobin checks dequeue order: FIFO within a tenant,
// round-robin across tenants.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue(16)
	mk := func(tenant string, seq uint64) *Run {
		return &Run{ID: fmt.Sprintf("%s-%d", tenant, seq), Tenant: tenant, seq: seq}
	}
	for _, r := range []*Run{mk("a", 1), mk("a", 2), mk("a", 3), mk("b", 4), mk("c", 5)} {
		if got := q.push(r); got != pushOK {
			t.Fatalf("push(%s) = %v", r.ID, got)
		}
	}
	want := []string{"a-1", "b-4", "c-5", "a-2", "a-3"}
	for i, w := range want {
		r, ok := q.pop()
		if !ok {
			t.Fatalf("pop #%d: queue closed early", i)
		}
		if r.ID != w {
			t.Fatalf("pop #%d = %s, want %s", i, r.ID, w)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth = %d after draining, want 0", q.depth())
	}
}

// TestFairQueueShedOldest checks oldest-first shedding across tenants and
// that canceled runs are skipped.
func TestFairQueueShedOldest(t *testing.T) {
	q := newFairQueue(16)
	a1 := &Run{ID: "a-1", Tenant: "a", seq: 1}
	b2 := &Run{ID: "b-2", Tenant: "b", seq: 2}
	a3 := &Run{ID: "a-3", Tenant: "a", seq: 3}
	for _, r := range []*Run{a1, b2, a3} {
		q.push(r)
	}
	a1.canceledWhileQueued.Store(true)
	if got := q.shedOldest(); got != b2 {
		t.Fatalf("shedOldest = %v, want b-2 (a-1 is canceled)", got)
	}
	if got := q.shedOldest(); got != a3 {
		t.Fatalf("shedOldest = %v, want a-3", got)
	}
	if got := q.shedOldest(); got != nil {
		t.Fatalf("shedOldest on empty = %v, want nil", got)
	}
}

// TestLoadShedding arms the memory-pressure hook and checks that a new
// submission evicts the oldest queued run, which lands in state shed.
func TestLoadShedding(t *testing.T) {
	var pressure atomic.Bool
	gate := newGateRunner()
	srv := New(Options{
		Workers:     1,
		QueueCap:    4,
		Runner:      gate.run,
		MemPressure: pressure.Load,
	})
	defer srv.Close()
	h := srv.Handler()
	submit := func() RunInfo {
		w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
		if w.Code != http.StatusAccepted {
			t.Fatalf("status = %d, want 202 (body %s)", w.Code, w.Body.String())
		}
		return decodeInfo(t, w)
	}

	submit() // A: occupies the worker
	<-gate.started
	victim := submit() // B: the oldest queued run
	submit()           // C: queued behind it
	if d := srv.sched.q.depth(); d != 2 {
		t.Fatalf("queue depth = %d, want 2 (B and C)", d)
	}

	pressure.Store(true)
	d := submit() // D: admitted by shedding B
	if d := srv.sched.q.depth(); d != 2 {
		t.Fatalf("queue depth = %d after the shed, want 2 (C and D)", d)
	}

	w := do(t, h, "GET", "/v1/runs/"+victim.ID, "", nil)
	if got := decodeInfo(t, w).State; got != StateShed {
		t.Fatalf("victim state = %q, want shed", got)
	}
	pressure.Store(false)
	close(gate.release)
	eventually(t, "run D to finish", func() bool {
		return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+d.ID, "", nil)).State == StateDone
	})
	// The shed counter moved.
	var shed float64
	for _, v := range srv.sched.reg.Snapshot().Values {
		if v.Name == "serve.runs.shed" {
			shed = v.Num()
		}
	}
	if shed != 1 {
		t.Fatalf("serve.runs.shed = %v, want 1", shed)
	}
}

// TestCancel covers DELETE on queued and running runs.
func TestCancel(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, QueueCap: 4, Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()
	submit := func() RunInfo {
		w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
		return decodeInfo(t, w)
	}

	a := submit()
	<-gate.started
	b := submit()
	c := submit() // queued behind B
	if d := srv.sched.q.depth(); d != 2 {
		t.Fatalf("queue depth = %d, want 2 (B and C)", d)
	}

	// Canceling a queued run is immediate.
	w := do(t, h, "DELETE", "/v1/runs/"+c.ID, "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE queued status = %d, want 200", w.Code)
	}
	if got := decodeInfo(t, w).State; got != StateCanceled {
		t.Fatalf("queued cancel state = %q, want canceled", got)
	}

	// Canceling a running run interrupts it via its context.
	w = do(t, h, "DELETE", "/v1/runs/"+a.ID, "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE running status = %d, want 200", w.Code)
	}
	eventually(t, "run A to cancel", func() bool {
		return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+a.ID, "", nil)).State == StateCanceled
	})

	close(gate.release)
	eventually(t, "run B to finish", func() bool {
		return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+b.ID, "", nil)).State == StateDone
	})
}

// TestWallClockWaitOnBaselineEndsCanceled: a run whose wall-clock budget
// runs out while it waits on another run's in-flight baseline ends
// canceled, with the budget as its reason, and does not wait for that
// baseline. The two runs share a 5M-instruction baseline, which run A
// simulates for far longer than run B's 50 ms budget.
func TestWallClockWaitOnBaselineEndsCanceled(t *testing.T) {
	srv := New(Options{Workers: 2})
	defer srv.Close()
	h := srv.Handler()
	a := decodeInfo(t, do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak","instrs":5000000,"seed":7001}`, nil))
	stateOf := func(id string) string { return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil)).State }
	eventually(t, "run A to start", func() bool { return stateOf(a.ID) == StateRunning })
	time.Sleep(100 * time.Millisecond) // A is inside its baseline

	b := submitWait(t, h, `{"benchmark":"astar","monitor":"AddrCheck","instrs":5000000,"seed":7001,"limits":{"wall_clock_ms":50}}`)
	if b.State != StateCanceled || b.Error != "sim: run canceled: wall-clock limit exceeded" {
		t.Fatalf("run B: state %q, error %q; want canceled by the budget while waiting", b.State, b.Error)
	}
	if st := stateOf(a.ID); st != StateRunning {
		t.Fatalf("run A is %q; B should have stopped before A's baseline finished", st)
	}
	do(t, h, "DELETE", "/v1/runs/"+a.ID, "", nil)
}

// TestWaitSynchronous checks wait=true returns the terminal record, and
// that a client disconnect mid-wait cancels the run with partial results
// flushed.
func TestWaitSynchronous(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()

	// Disconnect path: issue the wait request with a cancelable context
	// (httptest's stand-in for the client hanging up).
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/runs?wait=true",
		strings.NewReader(`{"benchmark":"astar","monitor":"MemLeak"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		h.ServeHTTP(w, req)
		close(handlerDone)
	}()
	<-gate.started
	cancel()
	<-handlerDone
	info := decodeInfo(t, w)
	if info.State != StateCanceled {
		t.Fatalf("disconnected wait state = %q, want canceled", info.State)
	}
	if info.Result == nil {
		t.Fatal("disconnected wait flushed no partial result")
	}

	// Happy path: release the gate, wait=1 returns done synchronously.
	close(gate.release)
	w2 := do(t, h, "POST", "/v1/runs?wait=1", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("wait=1 status = %d, want 200", w2.Code)
	}
	if got := decodeInfo(t, w2).State; got != StateDone {
		t.Fatalf("wait=1 state = %q, want done", got)
	}
}

// TestTimelineEndpoint checks the 409 not_ready path and the JSONL stream
// for a finished run with timeline sampling on.
func TestTimelineEndpoint(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	id := decodeInfo(t, w).ID
	<-gate.started

	// Still running: the timeline is not available yet.
	w = do(t, h, "GET", "/v1/runs/"+id+"/timeline", "", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("running timeline status = %d, want 409", w.Code)
	}
	if e := decodeErr(t, w); e.Code != ErrCodeNotReady {
		t.Fatalf("running timeline code = %q, want not_ready", e.Code)
	}
	close(gate.release)
	eventually(t, "run to finish", func() bool {
		return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil)).State == StateDone
	})

	// A real run with sampling on streams one JSON object per line.
	real := New(Options{Workers: 1})
	defer real.Close()
	rh := real.Handler()
	w = do(t, rh, "POST", "/v1/runs?wait=1",
		`{"benchmark":"astar","monitor":"MemLeak","instrs":2000,"timeline_every":500}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("real run status = %d (body %s)", w.Code, w.Body.String())
	}
	info := decodeInfo(t, w)
	w = do(t, rh, "GET", "/v1/runs/"+info.ID+"/timeline", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("timeline status = %d, want 200", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("timeline Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("timeline stream is empty")
	}
	for i, line := range lines {
		var point struct {
			Cell  string `json:"cell"`
			Cycle uint64 `json:"cycle"`
		}
		if err := json.Unmarshal([]byte(line), &point); err != nil {
			t.Fatalf("timeline line %d is not JSON: %v (%q)", i, err, line)
		}
		if point.Cell != "astar/MemLeak" {
			t.Fatalf("timeline line %d cell = %q, want astar/MemLeak", i, point.Cell)
		}
	}
}

// TestDrain checks graceful shutdown: in-flight runs complete, new
// submissions get 503 draining, and readyz flips while healthz stays up.
func TestDrain(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, Runner: gate.run})
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	id := decodeInfo(t, w).ID
	<-gate.started

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	eventually(t, "draining flag", func() bool { return srv.sched.Draining() })

	if w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining status = %d, want 503", w.Code)
	} else if e := decodeErr(t, w); e.Code != ErrCodeDraining {
		t.Fatalf("submit while draining code = %q, want draining", e.Code)
	}
	if w := do(t, h, "GET", "/readyz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining status = %d, want 503", w.Code)
	}
	if w := do(t, h, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz while draining status = %d, want 200", w.Code)
	}

	// The in-flight run completes and drain returns cleanly.
	close(gate.release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain returned %v, want nil", err)
	}
	if got := decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil)).State; got != StateDone {
		t.Fatalf("in-flight run state after drain = %q, want done", got)
	}
}

// TestDrainTimeout checks the expiry path: when the drain budget runs out,
// remaining runs are canceled and their partial results flushed.
func TestDrainTimeout(t *testing.T) {
	gate := newGateRunner() // never released: the run only stops via ctx
	srv := New(Options{Workers: 1, Runner: gate.run})
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	id := decodeInfo(t, w).ID
	<-gate.started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	info := decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil))
	if info.State != StateCanceled {
		t.Fatalf("state after expired drain = %q, want canceled", info.State)
	}
	if info.Result == nil {
		t.Fatal("expired drain flushed no partial result")
	}
}

// TestMetricsEndpoint checks /metrics serves the serve.* namespace plus
// hub-published per-run snapshots with labels.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("app.instrs").Add(42)
	snap := reg.Snapshot()
	srv := New(Options{
		Workers: 1,
		Runner: func(_ context.Context, s runspec.Spec, _ ...system.Option) (*system.Outcome, error) {
			return &system.Outcome{Result: &system.Result{Benchmark: s.Benchmark, Metrics: snap}}, nil
		},
	})
	defer srv.Close()
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs?wait=1", `{"benchmark":"astar","monitor":"MemLeak"}`, map[string]string{"X-API-Key": "alice"})
	if w.Code != http.StatusOK {
		t.Fatalf("run status = %d", w.Code)
	}
	id := decodeInfo(t, w).ID

	w = do(t, h, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"fade_serve_http_requests",
		"fade_serve_queue_depth",
		"fade_serve_runs_completed 1",
		"fade_serve_http_latency_us_submit_count",
		"fade_serve_tracestore_fills",
		"fade_serve_tracestore_live_bytes",
		"fade_serve_tracestore_refills",
		"fade_serve_tracestore_idle_allowance",
		"fade_serve_tracestore_idle_bytes",
		`run="` + id + `"`,
		`tenant="alice"`,
		`bench="astar"`,
		`monitor="MemLeak"`,
		"fade_app_instrs",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics output is missing %q", want)
		}
	}
}

// TestLatencyHistogram unit-tests the lock-free histogram's derived
// series.
func TestLatencyHistogram(t *testing.T) {
	var h latencyHist
	for i := 0; i < 99; i++ {
		h.observe(50 * time.Microsecond) // first bucket (<=100us)
	}
	h.observe(2 * time.Second) // overflow-adjacent tail

	total := h.count.Load()
	if total != 100 {
		t.Fatalf("count = %d, want 100", total)
	}
	if got := h.quantile(0.50, total); got != 100 {
		t.Fatalf("p50 = %v, want 100 (first bucket bound)", got)
	}
	if got := h.quantile(0.99, total); got != 100 {
		t.Fatalf("p99 = %v, want 100 (99 of 100 in the first bucket)", got)
	}
	if got := h.maxUS.Load(); got != 2_000_000 {
		t.Fatalf("max = %d, want 2000000", got)
	}
}
