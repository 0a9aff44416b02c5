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
	p := NewPool(4)
	for i := 0; i < 100; i++ {
		p.Go(func() { n.Add(1) })
	}
	p.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	p := NewPool(workers)
	for i := 0; i < 50; i++ {
		p.Go(func() {
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	p.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", got, workers)
	}
}

func TestPoolDefaultWidth(t *testing.T) {
	p := NewPool(0)
	if got, want := cap(p.sem), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default width %d, want GOMAXPROCS %d", got, want)
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

func TestPoolIntrospection(t *testing.T) {
	p := NewPool(2)
	if p.Width() != 2 {
		t.Fatalf("Width = %d, want 2", p.Width())
	}
	if p.InFlight() != 0 {
		t.Fatalf("idle InFlight = %d, want 0", p.InFlight())
	}
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	task := func() { started <- struct{}{}; <-block }
	p.Go(task)
	p.Go(task)
	<-started
	<-started
	if p.InFlight() != 2 {
		t.Fatalf("busy InFlight = %d, want 2", p.InFlight())
	}
	close(block)
	p.Wait()
	if p.InFlight() != 0 {
		t.Fatalf("drained InFlight = %d, want 0", p.InFlight())
	}
	// After a drain the pool remains usable.
	p.Go(func() {})
	p.Wait()
}
