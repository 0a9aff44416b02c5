package fabric

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fade/internal/client"
	"fade/internal/experiments"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/system"
)

// fakeClock is a manually-advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testCell builds an addressable (hashable) cell without needing it to be
// executable — lifecycle tests never simulate.
func testCell(label string) experiments.Cell {
	return experiments.Cell{
		Label: label,
		Spec:  runspec.Spec{Kind: runspec.KindRun, Benchmark: label, Monitor: "MemLeak", Instrs: 1000, Seed: 1},
	}
}

// validOutcome returns bytes that pass the coordinator's decode check.
func validOutcome(t *testing.T) []byte {
	t.Helper()
	b, err := system.EncodeOutcome(&system.Outcome{Baseline: &system.BaselineOutcome{Cycles: 1, WarmBoundary: 1}})
	if err != nil {
		t.Fatalf("encoding outcome: %v", err)
	}
	return b
}

// TestLeaseLifecycle drives the full state machine under a fake clock:
// grant → heartbeat renewal → expiry → re-queue → retry-cap exhaustion →
// stale completion still accepted → duplicate flagged.
func TestLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	coord, err := NewCoordinator(Options{
		Cache:      rcache.NewMem(8),
		LeaseTTL:   10 * time.Second,
		MaxRetries: 2,
		Now:        clk.now,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	cell := testCell("astar")
	hash := cell.Spec.Hash()
	coord.Add([]experiments.Cell{cell})
	coord.Seal()

	// Grant to worker A.
	g1, done, _ := coord.Lease("A")
	if g1 == nil || done {
		t.Fatalf("first lease: grant %v done %v, want a grant", g1, done)
	}
	if g1.Attempt != 1 || g1.Label != "astar" || g1.TTLMS != 10_000 {
		t.Fatalf("grant = %+v, want attempt 1, label astar, ttl 10000ms", g1)
	}

	// Heartbeats renew the full TTL: at t=6s and t=15s the lease is alive
	// only because the first renewal pushed the deadline to t=16s.
	clk.advance(6 * time.Second)
	if !coord.Heartbeat("A", g1.ID) {
		t.Fatal("heartbeat at t=6s failed on a live lease")
	}
	clk.advance(9 * time.Second)
	if !coord.Heartbeat("A", g1.ID) {
		t.Fatal("heartbeat at t=15s failed on a renewed lease")
	}

	// Let it expire (renewed deadline t=25s; jump past it). The next
	// lease call from worker B runs the expiry scan and gets the cell.
	clk.advance(11 * time.Second)
	g2, done, _ := coord.Lease("B")
	if g2 == nil || done {
		t.Fatalf("lease after expiry: grant %v done %v, want re-grant", g2, done)
	}
	if g2.Attempt != 2 {
		t.Fatalf("re-grant attempt = %d, want 2", g2.Attempt)
	}
	if coord.Heartbeat("A", g1.ID) {
		t.Fatal("heartbeat on the expired lease succeeded")
	}
	st := coord.Stats()
	if st.LeasesExpired != 1 || st.Retries != 1 || st.LeasesGranted != 2 {
		t.Fatalf("stats = %+v, want expired 1, retries 1, granted 2", st)
	}

	// Expire attempt 2, re-grant (attempt 3), expire again: attempts (3)
	// now exceed MaxRetries (2) → exhausted, not re-queued.
	clk.advance(11 * time.Second)
	coord.Expire()
	g3, _, _ := coord.Lease("B")
	if g3 == nil || g3.Attempt != 3 {
		t.Fatalf("third grant = %+v, want attempt 3", g3)
	}
	clk.advance(11 * time.Second)
	coord.Expire()
	st = coord.Stats()
	if st.Exhausted != 1 || st.Retries != 2 || st.LeasesExpired != 3 {
		t.Fatalf("stats = %+v, want exhausted 1, retries 2, expired 3", st)
	}
	if g, done, _ := coord.Lease("B"); g != nil || done {
		t.Fatalf("lease on exhausted sweep: grant %v done %v, want neither (local executor owns it)", g, done)
	}

	// A stale completion — worker A's long-dead first lease — still lands
	// the result: the cell's identity is its content hash.
	payload := validOutcome(t)
	dup, err := coord.Complete("A", g1.ID, hash, payload)
	if err != nil || dup {
		t.Fatalf("stale complete: dup %v err %v, want accepted", dup, err)
	}
	if _, _, ok := coord.opts.Cache.Get(hash); !ok {
		t.Fatal("completed outcome is not in the coordinator cache")
	}
	// Upload again: duplicate, not an error, nothing re-cached.
	dup, err = coord.Complete("B", g3.ID, hash, payload)
	if err != nil || !dup {
		t.Fatalf("repeat complete: dup %v err %v, want duplicate", dup, err)
	}

	// All cells terminal → workers are released.
	if _, done, _ := coord.Lease("B"); !done {
		t.Fatal("lease after completion: want done=true")
	}
	st = coord.Stats()
	if st.Done != 1 || st.CompleteOK != 1 || st.CompleteDuplicate != 1 {
		t.Fatalf("final stats = %+v, want done 1, ok 1, duplicate 1", st)
	}
}

// TestCompleteValidation: garbage payloads and unknown cells are
// rejected, counted, and never cached.
func TestCompleteValidation(t *testing.T) {
	coord, err := NewCoordinator(Options{Cache: rcache.NewMem(8)})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	cell := testCell("astar")
	coord.Add([]experiments.Cell{cell})

	if _, err := coord.Complete("A", "l-000001", cell.Spec.Hash(), []byte("not json")); !errors.Is(err, errBadOutcome) {
		t.Fatalf("garbage payload error = %v, want errBadOutcome", err)
	}
	var other rcache.Key
	other[0] = 0xFF
	if _, err := coord.Complete("A", "l-000001", other, validOutcome(t)); !errors.Is(err, errUnknownCell) {
		t.Fatalf("unknown cell error = %v, want errUnknownCell", err)
	}
	st := coord.Stats()
	if st.CompleteRejected != 2 || st.Done != 0 {
		t.Fatalf("stats = %+v, want rejected 2, done 0", st)
	}
}

// TestAddDedupAndPrecache: duplicate specs collapse to one cell; cells
// already in the cache are born done and never distributed.
func TestAddDedupAndPrecache(t *testing.T) {
	cache := rcache.NewMem(8)
	warm := testCell("ocean")
	cache.Put(warm.Spec.Hash(), validOutcome(t))

	coord, err := NewCoordinator(Options{Cache: cache})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	coord.Add([]experiments.Cell{testCell("astar"), testCell("astar"), warm})
	coord.Seal()
	st := coord.Stats()
	if st.Total != 2 || st.Pending != 1 || st.Done != 1 || st.Precached != 1 {
		t.Fatalf("stats = %+v, want total 2, pending 1, done 1, precached 1", st)
	}
}

// TestDriveDegradesToLocal: Drive runs cells on the coordinator itself
// when no worker will — real (small) simulations through the real cache.
// With no workers and zero grace it claims the backlog at once; when the
// only worker takes a lease and vanishes, nothing but Drive's own timer
// is left to expire the lease and then end the grace window.
func TestDriveDegradesToLocal(t *testing.T) {
	cells, err := experiments.CellsFor("fig2bc", experiments.Options{Instrs: 2_000})
	if err != nil {
		t.Fatalf("CellsFor: %v", err)
	}
	for _, tc := range []struct {
		name        string
		cells       int
		ttl, grace  time.Duration
		ghost       bool // a worker leases a cell before Drive starts, then never returns
		wantExpired uint64
		within      time.Duration
	}{
		{name: "no workers", cells: 4, within: time.Minute},
		{name: "worker vanishes", cells: 1, ttl: 50 * time.Millisecond, grace: 100 * time.Millisecond,
			ghost: true, wantExpired: 1, within: 2 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells := cells[:tc.cells]
			cache := rcache.NewMem(64)
			coord, err := NewCoordinator(Options{Cache: cache, LeaseTTL: tc.ttl})
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			coord.Add(cells)
			coord.Seal()
			if tc.ghost {
				if g, _, _ := coord.Lease("ghost"); g == nil {
					t.Fatal("ghost worker got no lease")
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), tc.within)
			defer cancel()
			if err := coord.Drive(ctx, tc.grace, 2); err != nil {
				t.Fatalf("Drive: %v", err)
			}
			st := coord.Stats()
			if st.Done != tc.cells || st.LocalCells != uint64(tc.cells) || st.LeasesExpired < tc.wantExpired {
				t.Fatalf("stats = %+v, want %d done, %d local, >= %d expired", st, tc.cells, tc.cells, tc.wantExpired)
			}
			for _, c := range cells {
				if _, _, ok := cache.Get(c.Spec.Hash()); !ok {
					t.Fatalf("cell %s missing from the cache after local execution", c.Label)
				}
			}
		})
	}
}

// TestDriveWakesOnCompletion: Drive returns as soon as the last cell
// completes, not at the next poll. Five one-cell sweeps run back to back,
// each completed by a worker goroutine 10 ms into the sweep; a fixed
// 100 ms poll would need at least half a second for the five.
func TestDriveWakesOnCompletion(t *testing.T) {
	const sweeps = 5
	payload := validOutcome(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var total time.Duration
	for i := 0; i < sweeps; i++ {
		coord, err := NewCoordinator(Options{Cache: rcache.NewMem(8)})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		cell := testCell(fmt.Sprintf("sweep-%d", i))
		coord.Add([]experiments.Cell{cell})
		coord.Seal()

		werr := make(chan error, 1)
		go func() {
			// Let Drive make its first pass and go to sleep: the
			// completion has to wake it.
			time.Sleep(10 * time.Millisecond)
			g, _, _ := coord.Lease("w")
			if g == nil {
				werr <- errors.New("no grant for the sweep's only cell")
				return
			}
			_, err := coord.Complete("w", g.ID, g.Spec.Hash(), payload)
			werr <- err
		}()
		start := time.Now()
		if err := coord.Drive(ctx, time.Minute, 1); err != nil {
			t.Fatalf("sweep %d: Drive: %v", i, err)
		}
		total += time.Since(start)
		if err := <-werr; err != nil {
			t.Fatalf("sweep %d: worker: %v", i, err)
		}
		if st := coord.Stats(); st.CompleteOK != 1 || st.LocalCells != 0 {
			t.Fatalf("sweep %d: stats = %+v, want 1 completed by the worker, 0 local", i, st)
		}
	}
	t.Logf("%d Drive calls took %v", sweeps, total)
	if total >= 250*time.Millisecond {
		t.Fatalf("%d one-cell sweeps took %v in Drive, want under 250ms", sweeps, total)
	}
}

// TestDriveReportsIncomplete: a cell that fails even locally surfaces as
// ErrIncomplete naming the cell — flagged, never silently dropped.
func TestDriveReportsIncomplete(t *testing.T) {
	coord, err := NewCoordinator(Options{Cache: rcache.NewMem(8)})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	// An unknown benchmark cannot execute anywhere.
	coord.Add([]experiments.Cell{{
		Label: "bogus",
		Spec:  runspec.Spec{Kind: runspec.KindRun, Benchmark: "no-such-bench", Monitor: "MemLeak", Instrs: 1000, Seed: 1},
	}})
	coord.Seal()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = coord.Drive(ctx, 0, 1)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Drive error = %v, want ErrIncomplete", err)
	}
	if st := coord.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v, want failed 1", st)
	}
}

// TestWorkerOverHTTP runs the real worker loop against the real HTTP
// surface through the real retrying client: lease, heartbeat, complete,
// done.
func TestWorkerOverHTTP(t *testing.T) {
	cache := rcache.NewMem(16)
	coord, err := NewCoordinator(Options{Cache: cache, LeaseTTL: time.Second})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	cells := []experiments.Cell{testCell("astar"), testCell("ocean")}
	coord.Add(cells)
	coord.Seal()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	payload := validOutcome(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = RunWorker(ctx, WorkerOptions{
		Coordinator: client.New(client.Options{BaseURL: ts.URL}),
		ID:          "w-test",
		Parallel:    2,
		Exec: func(ctx context.Context, spec runspec.Spec) ([]byte, error) {
			return payload, nil
		},
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	st := coord.Stats()
	if st.Done != 2 || st.CompleteOK != 2 || st.WorkersRegistered != 1 {
		t.Fatalf("stats = %+v, want 2 done, 2 complete_ok, 1 worker", st)
	}
	for _, c := range cells {
		if _, _, ok := cache.Get(c.Spec.Hash()); !ok {
			t.Fatalf("cell %s missing from the coordinator cache", c.Label)
		}
	}
}

// TestDistributedAssemblySimulatesNothing: once two workers with the
// default executor have run a sweep's cells, assembling the table from
// the coordinator's cache is a pure read (no cache miss) and equals a
// local run.
func TestDistributedAssemblySimulatesNothing(t *testing.T) {
	const expID = "fig3c"
	opts := experiments.Options{Instrs: 25_000, Seed: 1}
	local, err := experiments.ByID(expID, opts)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	cells, err := experiments.CellsFor(expID, opts)
	if err != nil {
		t.Fatalf("CellsFor: %v", err)
	}
	cache := rcache.NewMem(256)
	coord, err := NewCoordinator(Options{Cache: cache})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	coord.Add(cells)
	coord.Seal()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	driveDone := make(chan error, 1)
	go func() { driveDone <- coord.Drive(ctx, time.Minute, 1) }()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = RunWorker(ctx, WorkerOptions{
				Coordinator: client.New(client.Options{BaseURL: ts.URL}),
				ID:          fmt.Sprintf("w-%d", i),
				Cache:       rcache.NewMem(64),
				PollMax:     50 * time.Millisecond,
			})
		}()
	}
	if err := <-driveDone; err != nil {
		t.Fatalf("Drive: %v", err)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if st := coord.Stats(); st.Done != len(cells) || st.CompleteOK != uint64(len(cells)) || st.LocalCells != 0 {
		t.Fatalf("stats = %+v, want all %d cells completed by workers", st, len(cells))
	}

	misses := cache.Stats().Misses
	opts.Cache = cache
	dist, err := experiments.ByID(expID, opts)
	if err != nil {
		t.Fatalf("assembling distributed table: %v", err)
	}
	if got := cache.Stats().Misses; got != misses {
		t.Fatalf("assembly simulated %d cells, want 0", got-misses)
	}
	if dist.String() != local.String() {
		t.Fatalf("distributed table differs from the local run\nlocal:\n%s\ndistributed:\n%s", local, dist)
	}
}

// TestStatusEndpoint: the status document round-trips the stats snapshot.
func TestStatusEndpoint(t *testing.T) {
	coord, err := NewCoordinator(Options{Cache: rcache.NewMem(8)})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	coord.Add([]experiments.Cell{testCell("astar")})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	var st Stats
	cl := client.New(client.Options{BaseURL: ts.URL})
	if err := cl.Call(context.Background(), "GET", "/v1/fabric/status", nil, &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Total != 1 || st.Pending != 1 || st.Sealed {
		t.Fatalf("status = %+v, want total 1, pending 1, unsealed", st)
	}
}

// TestGrantSpecRoundTrips: the spec a worker receives hashes identically
// to the coordinator's cell — the property every idempotency claim rests
// on.
func TestGrantSpecRoundTrips(t *testing.T) {
	coord, err := NewCoordinator(Options{Cache: rcache.NewMem(8)})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	cell := testCell("astar")
	coord.Add([]experiments.Cell{cell})
	g, _, _ := coord.Lease("A")
	if g == nil {
		t.Fatal("no grant")
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal grant: %v", err)
	}
	var back Grant
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal grant: %v", err)
	}
	if back.Spec.Hash() != cell.Spec.Hash() {
		t.Fatalf("spec hash changed over the wire: %s vs %s",
			hex.EncodeToString(func() []byte { h := back.Spec.Hash(); return h[:] }()),
			hex.EncodeToString(func() []byte { h := cell.Spec.Hash(); return h[:] }()))
	}
}
