package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"fade/internal/experiments"
	"fade/internal/obs"
	"fade/internal/par"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/system"
)

// ErrIncomplete is the sentinel wrapped by Drive when the sweep could not
// complete every cell even after local degradation: some cells failed in
// local execution too. Callers detect it with errors.Is and must treat
// the assembled table as partial — it is flagged, never silently
// truncated.
var ErrIncomplete = errors.New("fabric: sweep incomplete")

// errBadOutcome and errUnknownCell classify Complete failures for the
// HTTP layer (422 bad_outcome, 404 unknown_cell).
var (
	errBadOutcome  = errors.New("outcome payload does not decode")
	errUnknownCell = errors.New("unknown cell")
)

// Cell states. A cell is born pending, cycles between pending and leased
// as leases are granted and expire, and terminates as done or failed.
// Exhausted and local are the degradation rungs in between: out of lease
// retries, then claimed by the coordinator's own executor.
const (
	cellPending = iota
	cellLeased
	cellDone
	cellExhausted
	cellLocal
	cellFailed
)

// Options configures a Coordinator.
type Options struct {
	// Cache is the coordinator's content-addressed result store —
	// required: completed cells land here and the final table is
	// assembled from it.
	Cache *rcache.Cache
	// LeaseTTL is how long a worker holds a cell before the lease expires
	// without a heartbeat (default 30s). Heartbeats renew the full TTL.
	LeaseTTL time.Duration
	// MaxRetries caps how many times an expired or failed lease is
	// re-queued (default 3). A cell over the cap is exhausted and falls
	// to the local executor.
	MaxRetries int
	// Logger receives lease-lifecycle records; nil disables logging.
	Logger *slog.Logger
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logger == nil {
		o.Logger = slog.New(noopHandler{})
	}
	return o
}

// cellState is one cell's slot in the state machine.
type cellState struct {
	label string
	spec  runspec.Spec
	hash  rcache.Key

	state    int
	attempts int    // lease grants so far
	leaseID  string // active lease, "" otherwise
	errMsg   string // terminal failure reason (cellFailed)
}

// lease is one outstanding grant.
type lease struct {
	id       string
	worker   string
	hash     rcache.Key
	deadline time.Time
}

// workerState tracks a registered worker for the status view.
type workerState struct {
	lastSeen time.Time
}

// Stats is a point-in-time snapshot of the coordinator: cell states,
// worker registry, and the lifetime counters that prove which paths ran.
type Stats struct {
	Total     int `json:"total"`
	Done      int `json:"done"`
	Pending   int `json:"pending"`
	Leased    int `json:"leased"`
	Exhausted int `json:"exhausted"`
	Local     int `json:"local"`
	Failed    int `json:"failed"`

	Workers int  `json:"workers"`
	Sealed  bool `json:"sealed"`

	Precached         uint64 `json:"precached"`
	LeasesGranted     uint64 `json:"leases_granted"`
	LeasesRenewed     uint64 `json:"leases_renewed"`
	LeasesExpired     uint64 `json:"leases_expired"`
	Retries           uint64 `json:"retries"`
	CompleteOK        uint64 `json:"complete_ok"`
	CompleteDuplicate uint64 `json:"complete_duplicate"`
	CompleteRejected  uint64 `json:"complete_rejected"`
	FailReported      uint64 `json:"fail_reported"`
	LocalCells        uint64 `json:"local_cells"`
	WorkersRegistered uint64 `json:"workers_registered"`
}

// Coordinator owns the cell state machine and the lease table. All
// methods are safe for concurrent use (the HTTP surface in http.go calls
// straight into them).
type Coordinator struct {
	opts Options
	reg  *obs.Registry
	met  *fabricMetrics

	mu           sync.Mutex
	sealed       bool
	cells        map[rcache.Key]*cellState
	order        []rcache.Key // Add order, for deterministic reporting
	queue        []rcache.Key // pending cells, FIFO
	leases       map[string]*lease
	workers      map[string]*workerState
	leaseSeq     uint64
	lastActivity time.Time // last worker interaction (or New/Seal)

	// changed is Drive's one-slot wake-up: raised under mu whenever a
	// cell turns done, failed, exhausted or pending again, or the set is
	// sealed.
	changed chan struct{}
}

// NewCoordinator builds a coordinator. Options.Cache is required: it is
// where completed cells land and where the table is assembled from.
func NewCoordinator(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.Cache == nil {
		return nil, errors.New("fabric: Options.Cache is required")
	}
	c := &Coordinator{
		opts:    opts,
		reg:     obs.NewRegistry(),
		cells:   make(map[rcache.Key]*cellState),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerState),
		changed: make(chan struct{}, 1),
	}
	c.lastActivity = opts.Now()
	c.met = newFabricMetrics(c.reg, c)
	return c, nil
}

// Registry returns the coordinator's fabric.* metrics registry (served on
// /metrics by the HTTP surface).
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Add registers an experiment's cells with the coordinator, de-duplicated
// by spec hash (overlapping experiments share cells, exactly like the
// cache they converge on). Cells whose outcome is already in the cache
// are born done — a warm sweep distributes nothing.
func (c *Coordinator) Add(cells []experiments.Cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range cells {
		h := cell.Spec.Hash()
		if _, ok := c.cells[h]; ok {
			continue
		}
		cs := &cellState{label: cell.Label, spec: cell.Spec, hash: h, state: cellPending}
		if _, _, ok := c.opts.Cache.Get(h); ok {
			cs.state = cellDone
			c.met.precached.Inc()
		} else {
			c.queue = append(c.queue, h)
		}
		c.cells[h] = cs
		c.order = append(c.order, h)
	}
}

// Seal marks the cell set complete: once sealed, workers are told the
// sweep is done when every cell is terminal. Add after Seal panics.
func (c *Coordinator) Seal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealed = true
	c.lastActivity = c.opts.Now()
	c.signalLocked()
}

// signalLocked wakes Drive to re-evaluate the cell set. The slot holds
// one pending wake-up; further signals before Drive drains it coalesce.
func (c *Coordinator) signalLocked() {
	select {
	case c.changed <- struct{}{}:
	default:
	}
}

// Register records a worker. Registration is idempotent and implicit in
// every other call; the explicit endpoint exists so a worker's arrival is
// visible (and logged) before its first lease.
func (c *Coordinator) Register(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	c.opts.Logger.Info("fabric: worker registered", "worker", worker)
}

func (c *Coordinator) touchWorkerLocked(worker string) {
	now := c.opts.Now()
	c.lastActivity = now
	if w, ok := c.workers[worker]; ok {
		w.lastSeen = now
		return
	}
	c.workers[worker] = &workerState{lastSeen: now}
	c.met.workersRegistered.Inc()
}

// Grant is one lease as handed to a worker.
type Grant struct {
	ID      string       `json:"id"`
	Label   string       `json:"label"`
	Spec    runspec.Spec `json:"spec"`
	TTLMS   int64        `json:"ttl_ms"`
	Attempt int          `json:"attempt"`
}

// Lease grants the next pending cell to the worker. done=true means the
// sweep is sealed and every cell is terminal — the worker should exit.
// A nil grant with done=false means no work right now; retry after the
// hinted delay.
func (c *Coordinator) Lease(worker string) (g *Grant, done bool, retryIn time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	now := c.opts.Now()
	c.expireLocked(now)

	for len(c.queue) > 0 {
		h := c.queue[0]
		c.queue = c.queue[1:]
		cs := c.cells[h]
		if cs.state != cellPending {
			continue // completed or claimed while queued
		}
		c.leaseSeq++
		id := fmt.Sprintf("l-%06d", c.leaseSeq)
		cs.state = cellLeased
		cs.attempts++
		cs.leaseID = id
		c.leases[id] = &lease{id: id, worker: worker, hash: h, deadline: now.Add(c.opts.LeaseTTL)}
		c.met.leaseGranted.Inc()
		c.opts.Logger.Info("fabric: lease granted",
			"lease", id, "worker", worker, "cell", cs.label, "attempt", cs.attempts)
		return &Grant{
			ID:      id,
			Label:   cs.label,
			Spec:    cs.spec,
			TTLMS:   c.opts.LeaseTTL.Milliseconds(),
			Attempt: cs.attempts,
		}, false, 0
	}
	if c.sealed && c.allTerminalLocked() {
		return nil, true, 0
	}
	// Nothing leasable: outstanding leases may yet expire and re-queue,
	// or the local executor may be working the backlog. Poll again soon.
	return nil, false, c.opts.LeaseTTL / 4
}

// Heartbeat renews the lease's deadline. It returns false when the lease
// is no longer held (expired and re-queued, or the cell completed another
// way) — the worker should abandon the cell.
func (c *Coordinator) Heartbeat(worker, leaseID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	now := c.opts.Now()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	l.deadline = now.Add(c.opts.LeaseTTL)
	c.met.leaseRenewed.Inc()
	return true
}

// Complete records a cell's encoded outcome. The payload is validated
// (it must decode as a system.Outcome) before it is admitted to the
// cache; a payload that does not decode is rejected and the lease is
// treated as failed. Completion is idempotent: a stale lease — expired,
// superseded, even unknown — still lands the result, because the cell's
// identity is its content hash, not the lease. duplicate=true reports
// the cell was already done.
func (c *Coordinator) Complete(worker, leaseID string, hash rcache.Key, payload []byte) (duplicate bool, err error) {
	if _, derr := system.DecodeOutcome(payload); derr != nil {
		c.met.completeRejected.Inc()
		c.mu.Lock()
		c.touchWorkerLocked(worker)
		// A worker that uploads garbage has not completed the cell; its
		// lease stands (and will expire) rather than burning a retry here.
		c.mu.Unlock()
		return false, fmt.Errorf("fabric: cell %s: %w: %v", shortHash(hash), errBadOutcome, derr)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	cs, ok := c.cells[hash]
	if !ok {
		c.met.completeRejected.Inc()
		return false, fmt.Errorf("fabric: completion for cell %s: %w", shortHash(hash), errUnknownCell)
	}
	if l, ok := c.leases[leaseID]; ok && l.hash == hash {
		delete(c.leases, leaseID)
	}
	if cs.state == cellDone {
		c.met.completeDuplicate.Inc()
		return true, nil
	}
	// The cell may be leased to someone else by now (our lease expired
	// and it was re-granted); the result is the result either way. Drop
	// the superseding lease so its worker is released at next heartbeat.
	if cs.leaseID != "" && cs.leaseID != leaseID {
		delete(c.leases, cs.leaseID)
	}
	cs.leaseID = ""
	cs.state = cellDone
	cs.errMsg = ""
	c.opts.Cache.Put(hash, payload)
	c.met.completeOK.Inc()
	c.signalLocked()
	c.opts.Logger.Info("fabric: cell complete", "lease", leaseID, "worker", worker, "cell", cs.label)
	return false, nil
}

// Fail reports a worker-side execution failure. The lease is released
// and the cell re-queued (or exhausted, past the retry cap) exactly as
// if the lease had expired — minus the wait.
func (c *Coordinator) Fail(worker, leaseID string, hash rcache.Key, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker)
	c.met.failReported.Inc()
	l, ok := c.leases[leaseID]
	if !ok || l.hash != hash {
		return // stale report; the expiry path already handled the cell
	}
	delete(c.leases, leaseID)
	cs := c.cells[hash]
	if cs == nil || cs.state != cellLeased || cs.leaseID != leaseID {
		return
	}
	c.opts.Logger.Warn("fabric: cell failed on worker",
		"lease", leaseID, "worker", worker, "cell", cs.label, "reason", reason)
	c.requeueLocked(cs, reason)
}

// Expire force-runs the lease expiry scan (tests; Drive and every worker
// interaction do this on their own).
func (c *Coordinator) Expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.opts.Now())
}

// expireLocked releases every lease past its deadline and re-queues (or
// exhausts) the cells they held.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if !l.deadline.After(now) {
			delete(c.leases, id)
			c.met.leaseExpired.Inc()
			cs := c.cells[l.hash]
			if cs == nil || cs.state != cellLeased || cs.leaseID != id {
				continue // completed or superseded before expiring
			}
			c.opts.Logger.Warn("fabric: lease expired",
				"lease", id, "worker", l.worker, "cell", cs.label, "attempt", cs.attempts)
			c.requeueLocked(cs, "lease expired")
		}
	}
}

// requeueLocked returns a cell to the pending queue, or exhausts it past
// the retry cap.
func (c *Coordinator) requeueLocked(cs *cellState, reason string) {
	cs.leaseID = ""
	c.signalLocked()
	if cs.attempts > c.opts.MaxRetries {
		cs.state = cellExhausted
		c.opts.Logger.Warn("fabric: cell exhausted lease retries",
			"cell", cs.label, "attempts", cs.attempts, "reason", reason)
		return
	}
	cs.state = cellPending
	c.queue = append(c.queue, cs.hash)
	c.met.retry.Inc()
}

func (c *Coordinator) allTerminalLocked() bool {
	for _, cs := range c.cells {
		switch cs.state {
		case cellDone, cellFailed:
		default:
			return false
		}
	}
	return true
}

// claimLocalLocked moves cells onto the coordinator's own executor:
// exhausted cells always (no worker will get them another lease), and —
// when there are no live leases and no worker has spoken for the grace
// window — the whole pending backlog, which covers both "no workers ever
// registered" and "the fleet died".
func (c *Coordinator) claimLocalLocked(now time.Time, grace time.Duration) []*cellState {
	var out []*cellState
	for _, h := range c.order {
		if cs := c.cells[h]; cs.state == cellExhausted {
			cs.state = cellLocal
			out = append(out, cs)
		}
	}
	if len(c.leases) == 0 && now.Sub(c.lastActivity) >= grace {
		for _, h := range c.queue {
			cs := c.cells[h]
			if cs.state != cellPending {
				continue
			}
			cs.state = cellLocal
			out = append(out, cs)
		}
		c.queue = nil
	}
	return out
}

// nextWakeLocked is how long Drive may sleep before the clock alone
// changes what it would do: the earliest lease deadline, or — with no
// lease out and cells still queued — the end of the grace window. Zero
// means only a state change can.
func (c *Coordinator) nextWakeLocked(now time.Time, grace time.Duration) time.Duration {
	var next time.Time
	for _, l := range c.leases {
		if next.IsZero() || l.deadline.Before(next) {
			next = l.deadline
		}
	}
	if len(c.leases) == 0 && len(c.queue) > 0 {
		next = c.lastActivity.Add(grace)
	}
	if next.IsZero() {
		return 0
	}
	return next.Sub(now)
}

// Drive is the coordinator's main loop: it expires stale leases, runs the
// degradation ladder (exhausted cells immediately, the pending backlog
// after grace with no worker activity), and returns when the sealed cell
// set is fully terminal. It has no fixed poll: between passes it sleeps
// until a state change is signalled (see Coordinator.changed), the next
// lease deadline passes, or the grace window ends. The
// returned error is nil for a complete sweep, ctx.Err() on cancellation,
// or wraps ErrIncomplete naming the cells that failed even locally.
func (c *Coordinator) Drive(ctx context.Context, grace time.Duration, parallel int) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		now := c.opts.Now()
		c.expireLocked(now)
		batch := c.claimLocalLocked(now, grace)
		done := c.sealed && c.allTerminalLocked()
		wake := c.nextWakeLocked(now, grace)
		c.mu.Unlock()

		if len(batch) > 0 {
			c.runLocal(ctx, batch, parallel)
			continue // re-evaluate immediately; more cells may have exhausted
		}
		if done {
			break
		}
		if err := c.await(ctx, wake); err != nil {
			return err
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var failed []string
	for _, h := range c.order {
		if cs := c.cells[h]; cs.state == cellFailed {
			failed = append(failed, fmt.Sprintf("%s (%s)", cs.label, cs.errMsg))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: %d of %d cells failed local execution: %s",
			ErrIncomplete, len(failed), len(c.order), strings.Join(failed, "; "))
	}
	return nil
}

// await blocks until ctx ends, a state change is signalled, or — when
// wake is positive — wake has elapsed.
func (c *Coordinator) await(ctx context.Context, wake time.Duration) error {
	var fire <-chan time.Time
	if wake > 0 {
		t := time.NewTimer(wake)
		defer t.Stop()
		fire = t.C
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.changed:
	case <-fire:
	}
	return nil
}

// runLocal executes claimed cells on the coordinator itself, through the
// same cache the table is assembled from. Failures mark the cell failed
// (terminal) rather than aborting the batch: Drive reports them together
// via ErrIncomplete.
func (c *Coordinator) runLocal(ctx context.Context, batch []*cellState, parallel int) {
	_, _ = par.RunCells(ctx, parallel, batch, func(ctx context.Context, cs *cellState) (struct{}, error) {
		_, err := system.ExecSpec(ctx, cs.spec, system.WithCache(c.opts.Cache))
		c.met.localCells.Inc()
		c.mu.Lock()
		if err != nil {
			cs.state = cellFailed
			cs.errMsg = err.Error()
			c.opts.Logger.Warn("fabric: local execution failed", "cell", cs.label, "error", err.Error())
		} else {
			cs.state = cellDone
			c.opts.Logger.Info("fabric: cell completed locally", "cell", cs.label)
		}
		c.signalLocked()
		c.mu.Unlock()
		return struct{}{}, nil
	})
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Total:   len(c.cells),
		Workers: len(c.workers),
		Sealed:  c.sealed,

		Precached:         c.met.precached.Value(),
		LeasesGranted:     c.met.leaseGranted.Value(),
		LeasesRenewed:     c.met.leaseRenewed.Value(),
		LeasesExpired:     c.met.leaseExpired.Value(),
		Retries:           c.met.retry.Value(),
		CompleteOK:        c.met.completeOK.Value(),
		CompleteDuplicate: c.met.completeDuplicate.Value(),
		CompleteRejected:  c.met.completeRejected.Value(),
		FailReported:      c.met.failReported.Value(),
		LocalCells:        c.met.localCells.Value(),
		WorkersRegistered: c.met.workersRegistered.Value(),
	}
	for _, cs := range c.cells {
		switch cs.state {
		case cellPending:
			st.Pending++
		case cellLeased:
			st.Leased++
		case cellDone:
			st.Done++
		case cellExhausted:
			st.Exhausted++
		case cellLocal:
			st.Local++
		case cellFailed:
			st.Failed++
		}
	}
	return st
}

func shortHash(h rcache.Key) string {
	return fmt.Sprintf("%x", h[:6])
}

// noopHandler mirrors serve's silent default logger (the stdlib's
// DiscardHandler postdates this module's Go version).
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h noopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h noopHandler) WithGroup(string) slog.Handler           { return h }
