package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fade/internal/spans"
)

// PanicError is the error RunCells reports for a cell that panicked: the
// panic value and the panicking goroutine's stack. One panicking cell
// therefore fails its experiment instead of killing the whole process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task panicked: %v\n%s", e.Value, e.Stack)
}

// RunCells runs fn over every cell on a pool of the given width (<= 0
// selects GOMAXPROCS) and returns the results in input order, regardless of
// completion order. Each invocation receives ctx; once ctx is done,
// not-yet-started cells are skipped with ctx's error rather than launched,
// so cancellation drains the pool quickly without abandoning running cells.
//
// On failure RunCells returns the error of the lowest-indexed failing cell —
// wrapped with the cell's index — so error reporting is as deterministic as
// the results. A panicking cell is recovered and reported the same way (as
// a *PanicError carrying the cell identity), never crashing the process or
// deadlocking the drain.
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// sem bounds the cells running at once, and with them the goroutine
	// count: the loop blocks while every slot is taken.
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for k := range cells {
		i := k
		if order != nil {
			i = order[k]
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 64<<10)
					pe := &PanicError{Value: r, Stack: buf[:runtime.Stack(buf, false)]}
					errs[i] = fmt.Errorf("cell %d: %w", i, pe)
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("cell %d: %w", i, err)
				return
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
				return
			}
			results[i] = r
		}()
	}
	wg.Wait() // errors are surfaced per-cell below, in input order
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
