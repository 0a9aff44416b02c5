package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverything(t *testing.T) {
	var n atomic.Int64
	if _, err := RunCells(context.Background(), 4, make([]int, 100), func(context.Context, int) (int, error) {
		n.Add(1)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d cells, want 100", n.Load())
	}
}

// peakCells runs cells cells at the given width and returns the most that
// ran at once. The first full row of cells waits (up to a second) until
// it is running together, so a pool of the expected width is seen full.
func peakCells(t *testing.T, workers, full, cells int) int64 {
	t.Helper()
	var cur, peak atomic.Int64
	_, err := RunCells(context.Background(), workers, make([]int, cells), func(context.Context, int) (int, error) {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		for deadline := time.Now().Add(time.Second); peak.Load() < int64(full) && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak.Load()
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	if got := peakCells(t, workers, workers, 50); got != workers {
		t.Fatalf("observed %d concurrent cells, want %d", got, workers)
	}
}

func TestPoolDefaultWidth(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if got := peakCells(t, 0, want, 4*want); got != int64(want) {
		t.Fatalf("default width ran %d cells at once, want GOMAXPROCS %d", got, want)
	}
}

func TestRunCellsPreservesOrder(t *testing.T) {
	cells := make([]int, 64)
	for i := range cells {
		cells[i] = i
	}
	// Workers run out of order (staggered sleeps); results must not.
	out, err := RunCells(context.Background(), 8, cells, func(_ context.Context, c int) (int, error) {
		time.Sleep(time.Duration(64-c) * 10 * time.Microsecond)
		return c * c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunCellsReportsLowestFailingCell(t *testing.T) {
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := RunCells(context.Background(), 4, cells, func(_ context.Context, c int) (int, error) {
		if c >= 3 {
			return 0, fmt.Errorf("sim %d exploded", c)
		}
		return c, nil
	})
	if err == nil || !contains(err.Error(), "cell 3") {
		t.Fatalf("err = %v, want lowest failing cell 3", err)
	}
}

func TestRunCellsEmpty(t *testing.T) {
	out, err := RunCells(context.Background(), 4, nil, func(_ context.Context, c int) (int, error) { return c, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("RunCells(nil) = %v, %v", out, err)
	}
}

// TestRunCellsRecoversPanics: a panicking cell must surface as an error
// naming the cell — with the panic value and a stack — and every other cell
// must still run to completion; the pool must not deadlock or crash.
func TestRunCellsRecoversPanics(t *testing.T) {
	var ran atomic.Int64
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := RunCells(context.Background(), 4, cells, func(_ context.Context, c int) (int, error) {
		ran.Add(1)
		if c == 2 {
			panic("simulated corruption")
		}
		return c, nil
	})
	if err == nil {
		t.Fatal("panicking cell returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *PanicError", err)
	}
	if pe.Value != "simulated corruption" {
		t.Fatalf("panic value = %v, want simulated corruption", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if !strings.Contains(err.Error(), "cell 2") {
		t.Fatalf("err %q does not identify cell 2", err)
	}
	if ran.Load() != int64(len(cells)) {
		t.Fatalf("ran %d cells, want all %d despite the panic", ran.Load(), len(cells))
	}
}

// TestRunCellsHonorsCancellation: once the context is canceled, unstarted
// cells are skipped and RunCells returns the cancellation error instead of
// hanging on the remaining work.
func TestRunCellsHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	_, err := RunCells(ctx, 1, cells, func(ctx context.Context, c int) (int, error) {
		if c == 3 {
			cancel()
		}
		ran.Add(1)
		return c, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Width 1 runs sequentially: cells after the cancel point are skipped.
	if got := ran.Load(); got >= int64(len(cells)) {
		t.Fatalf("all %d cells ran despite cancellation", got)
	}
}

func TestRunCellsSequentialWidthOne(t *testing.T) {
	var mu sync.Mutex
	var order []int
	cells := []int{0, 1, 2, 3, 4}
	_, err := RunCells(context.Background(), 1, cells, func(_ context.Context, c int) (int, error) {
		mu.Lock()
		order = append(order, c)
		mu.Unlock()
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("width-1 execution order %v not sequential", order)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
