package fabric

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"fade/internal/client"
	"fade/internal/rcache"
	"fade/internal/runspec"
	"fade/internal/system"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the fabric client (internal/client pointed at the
	// coordinator's base URL). Required.
	Coordinator *client.Client
	// ID identifies this worker in leases and logs (default
	// "w-<hostname>-<pid>").
	ID string
	// Parallel is how many leases the worker holds concurrently (default
	// 1; fadeworker defaults it to GOMAXPROCS).
	Parallel int
	// Cache is the worker-local result cache. Execution goes through it
	// (single-flight, disk persistence, corruption recovery); nil
	// executes uncached.
	Cache *rcache.Cache
	// Logger receives worker lifecycle records; nil disables logging.
	Logger *slog.Logger

	// Exec overrides cell execution (tests). It returns the encoded
	// outcome (system.EncodeOutcome bytes). The default executes through
	// Cache.
	Exec func(ctx context.Context, spec runspec.Spec) ([]byte, error)
	// HeartbeatEvery overrides the renewal cadence (default: a third of
	// the granted TTL).
	HeartbeatEvery time.Duration
	// PollMax clamps how long the worker sleeps between lease polls when
	// the coordinator has no work yet (default 2s).
	PollMax time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "local"
		}
		o.ID = fmt.Sprintf("w-%s-%d", host, os.Getpid())
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	if o.Logger == nil {
		o.Logger = slog.New(noopHandler{})
	}
	if o.Exec == nil {
		cache := o.Cache
		o.Exec = func(ctx context.Context, spec runspec.Spec) ([]byte, error) {
			return execEncoded(ctx, cache, spec)
		}
	}
	if o.PollMax <= 0 {
		o.PollMax = 2 * time.Second
	}
	return o
}

// execEncoded is the default cell executor: the spec runs through the
// worker's own cache (so a worker re-leased a cell it already computed
// serves bytes from disk), and the outcome goes back encoded — the bytes
// the coordinator admits to its cache. The codec is deterministic, so they
// equal the bytes a local run stores.
func execEncoded(ctx context.Context, cache *rcache.Cache, spec runspec.Spec) ([]byte, error) {
	out, err := system.ExecSpec(ctx, spec, system.WithCache(cache))
	if err != nil {
		return nil, err
	}
	return system.EncodeOutcome(out)
}

// RunWorker runs lease loops against the coordinator until the sweep is
// done (nil), the context ends (ctx.Err()), or the coordinator becomes
// unreachable past the client's retry budget (the transport error).
func RunWorker(ctx context.Context, o WorkerOptions) error {
	o = o.withDefaults()
	w := &worker{o: o}
	if err := o.Coordinator.Call(ctx, http.MethodPost, "/v1/fabric/register",
		RegisterRequest{Worker: o.ID}, nil); err != nil {
		return fmt.Errorf("fabric: registering worker %s: %w", o.ID, err)
	}
	o.Logger.Info("fabric: worker running", "worker", o.ID, "parallel", o.Parallel)

	loopCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, o.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < o.Parallel; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			if err := w.loop(loopCtx); err != nil {
				errs[slot] = err
				cancel() // one slot failing hard stops the others
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return ctx.Err()
}

// worker is the per-process state shared by the lease loops.
type worker struct {
	o WorkerOptions
}

// loop is one lease slot: poll, execute, upload, repeat until done.
func (w *worker) loop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp LeaseResponse
		if err := w.o.Coordinator.Call(ctx, http.MethodPost, "/v1/fabric/lease",
			LeaseRequest{Worker: w.o.ID}, &resp); err != nil {
			return fmt.Errorf("fabric: leasing: %w", err)
		}
		if resp.Done {
			w.o.Logger.Info("fabric: sweep done", "worker", w.o.ID)
			return nil
		}
		if resp.Lease == nil {
			wait := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if wait <= 0 || wait > w.o.PollMax {
				wait = w.o.PollMax
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return err
			}
			continue
		}
		w.runLease(ctx, resp.Lease)
	}
}

// runLease executes one granted cell under heartbeat renewal. Losing the
// lease cancels execution; execution errors are reported via fail; a
// successful outcome is uploaded via complete. All terminal paths return
// to the lease loop — per-cell failures never kill the worker.
func (w *worker) runLease(ctx context.Context, g *Grant) {
	execCtx, cancelExec := context.WithCancel(ctx)
	defer cancelExec()

	every := w.o.HeartbeatEvery
	if every <= 0 {
		every = time.Duration(g.TTLMS) * time.Millisecond / 3
	}
	if every <= 0 {
		every = time.Second
	}
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-execCtx.Done():
				return
			case <-t.C:
			}
			err := w.o.Coordinator.Call(execCtx, http.MethodPost, "/v1/fabric/heartbeat",
				HeartbeatRequest{Worker: w.o.ID, LeaseID: g.ID}, nil)
			var ae *client.APIError
			if errors.As(err, &ae) && ae.Code == ErrCodeLeaseLost {
				// The coordinator re-queued the cell; stop burning cycles
				// on it. (Completion would still have been accepted — this
				// is an optimization, not a correctness requirement.)
				w.o.Logger.Warn("fabric: lease lost", "worker", w.o.ID, "lease", g.ID, "cell", g.Label)
				cancelExec()
				return
			}
			// Transport failures (a partition) are survivable: the client
			// already retried, the next tick tries again, and if the lease
			// expires meanwhile the eventual completion is still accepted.
			if err != nil && execCtx.Err() == nil {
				w.o.Logger.Warn("fabric: heartbeat failed", "worker", w.o.ID, "lease", g.ID, "error", err.Error())
			}
		}
	}()

	w.o.Logger.Info("fabric: executing cell", "worker", w.o.ID, "lease", g.ID, "cell", g.Label, "attempt", g.Attempt)
	payload, execErr := w.o.Exec(execCtx, g.Spec)
	close(hbStop)
	hbWG.Wait()

	hash := hex.EncodeToString(func() []byte { h := g.Spec.Hash(); return h[:] }())
	switch {
	case execErr == nil:
		var cr CompleteResponse
		err := w.o.Coordinator.Call(ctx, http.MethodPost, "/v1/fabric/complete",
			CompleteRequest{Worker: w.o.ID, LeaseID: g.ID, SpecHash: hash, Outcome: payload}, &cr)
		if err != nil {
			w.o.Logger.Warn("fabric: completion upload failed", "worker", w.o.ID, "cell", g.Label, "error", err.Error())
		} else if cr.Duplicate {
			w.o.Logger.Info("fabric: cell was already complete", "worker", w.o.ID, "cell", g.Label)
		}
	case execCtx.Err() != nil && ctx.Err() == nil:
		// Lease lost mid-execution; nothing to report, the cell is
		// already re-queued.
	case ctx.Err() != nil:
		// Shutting down; the lease will expire on its own.
	default:
		w.o.Logger.Warn("fabric: cell failed", "worker", w.o.ID, "cell", g.Label, "error", execErr.Error())
		_ = w.o.Coordinator.Call(ctx, http.MethodPost, "/v1/fabric/fail",
			FailRequest{Worker: w.o.ID, LeaseID: g.ID, SpecHash: hash, Error: execErr.Error()}, nil)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
