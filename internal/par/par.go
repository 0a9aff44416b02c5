package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fade/internal/spans"
)

// Pool is a bounded worker pool. Submit work with Go; Wait blocks until all
// submitted work has finished and returns the collected errors.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu   sync.Mutex
	errs []error

	failFast bool
	stop     chan struct{}
	stopOnce sync.Once
}

// PanicError is the error a Pool records when a submitted task panics: the
// worker recovers the panic, captures its value and stack, and surfaces it
// through Wait like any other task failure. One panicking cell therefore
// fails its experiment instead of killing the whole process, and the pool
// drains normally — no semaphore slot or WaitGroup count is leaked.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task panicked: %v\n%s", e.Value, e.Stack)
}

// Option configures a Pool.
type Option func(*Pool)

// FailFast makes the pool skip tasks submitted (or not yet started) after
// the first error. Already-running tasks are not interrupted.
func FailFast() Option { return func(p *Pool) { p.failFast = true } }

// NewPool returns a pool running at most workers tasks concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(workers int, opts ...Option) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		sem:  make(chan struct{}, workers),
		stop: make(chan struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Go submits fn to the pool. It blocks only while all workers are busy
// (bounding both concurrency and the goroutine count); the task itself runs
// asynchronously. A panicking task is recovered and recorded as a
// *PanicError rather than crashing the process. A nil-safe no-op after
// cancellation in fail-fast mode.
func (p *Pool) Go(fn func() error) {
	select {
	case <-p.stop:
		return
	case p.sem <- struct{}{}:
	}
	p.launch(fn)
}

// TryGo submits fn only if a worker slot is immediately free, never
// blocking the caller; it reports whether the task was accepted. Together
// with Width and InFlight it lets a long-running scheduler (the fadeserve
// admission path) dispatch onto the pool without stalling and surface the
// pool's occupancy as backpressure instead.
func (p *Pool) TryGo(fn func() error) bool {
	select {
	case <-p.stop:
		return false
	default:
	}
	select {
	case p.sem <- struct{}{}:
	default:
		return false
	}
	p.launch(fn)
	return true
}

// Width returns the pool's worker-slot count.
func (p *Pool) Width() int { return cap(p.sem) }

// InFlight returns the number of tasks currently holding a worker slot —
// the pool's instantaneous occupancy, suitable for a gauge. It is a
// point-in-time read: concurrent submissions and completions move it.
func (p *Pool) InFlight() int { return len(p.sem) }

// launch runs fn on a new goroutine; the caller has already acquired a
// semaphore slot.
func (p *Pool) launch(fn func() error) {
	p.wg.Add(1)
	go func() {
		defer func() {
			<-p.sem
			p.wg.Done()
		}()
		if p.failFast {
			select {
			case <-p.stop:
				return
			default:
			}
		}
		if err := p.run(fn); err != nil {
			p.mu.Lock()
			p.errs = append(p.errs, err)
			p.mu.Unlock()
			if p.failFast {
				p.stopOnce.Do(func() { close(p.stop) })
			}
		}
	}()
}

// run executes fn, converting a panic into a *PanicError. The recover sits
// in its own frame so the deferred semaphore/WaitGroup release in Go always
// runs — a panicking task cannot deadlock Wait.
func (p *Pool) run(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			err = &PanicError{Value: r, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return fn()
}

// Wait blocks until every submitted task has completed and returns the
// collected errors joined (nil when all tasks succeeded). The pool may be
// reused after Wait unless it was cancelled by fail-fast.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return errors.Join(p.errs...)
}

// RunCells runs fn over every cell on a pool of the given width (<= 0
// selects GOMAXPROCS) and returns the results in input order, regardless of
// completion order. Each invocation receives ctx; once ctx is done,
// not-yet-started cells are skipped with ctx's error rather than launched,
// so cancellation drains the pool quickly without abandoning running cells.
//
// On failure RunCells returns the error of the lowest-indexed failing cell —
// wrapped with the cell's index — so error reporting is as deterministic as
// the results. A panicking cell is recovered by the pool and reported the
// same way (as a *PanicError carrying the cell identity), never crashing the
// process or deadlocking the drain.
func RunCells[C, R any](ctx context.Context, workers int, cells []C, fn func(context.Context, C) (R, error)) ([]R, error) {
	return RunCellsOrdered(ctx, workers, cells, nil, fn)
}

// RunCellsOrdered is RunCells with a dispatch order: cells start in the
// order order lists their indices (nil is input order), which must be a
// permutation of the input indices. Only start order changes — results,
// the reported error and every par.cell span still refer to input
// indices — so the determinism contract is RunCells'.
func RunCellsOrdered[C, R any](ctx context.Context, workers int, cells []C, order []int, fn func(context.Context, C) (R, error)) ([]R, error) {
	if order != nil && len(order) != len(cells) {
		panic(fmt.Sprintf("par: dispatch order lists %d of %d cells", len(order), len(cells)))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(cells))
	errs := make([]error, len(cells))
	// When the context carries a span trace, every cell contributes one
	// wall-domain par.cell span, making pool occupancy visible in the
	// exported trace. tr == nil (the common case) costs one context lookup.
	tr := spans.FromContext(ctx)
	p := NewPool(workers)
	for k := range cells {
		i := k
		if order != nil {
			i = order[k]
		}
		p.Go(func() (err error) {
			// Recover here, not just in the pool, so the error names the
			// failing cell; the pool's own recover remains the backstop for
			// tasks submitted directly through Go.
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 64<<10)
					pe := &PanicError{Value: r, Stack: buf[:runtime.Stack(buf, false)]}
					errs[i] = fmt.Errorf("cell %d: %w", i, pe)
					err = errs[i]
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("cell %d: %w", i, err)
				return errs[i]
			}
			if tr != nil {
				start := time.Now()
				defer func() {
					tr.Wall(spans.NameParCell, start, time.Now(),
						spans.Num("cell", uint64(i)), spans.None)
				}()
			}
			r, err := fn(ctx, cells[i])
			if err != nil {
				errs[i] = fmt.Errorf("cell %d: %w", i, err)
				return errs[i]
			}
			results[i] = r
			return nil
		})
	}
	p.wg.Wait() // errors are surfaced per-cell below, in input order
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
