package rcache

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fade/internal/obs"
)

func key(s string) Key { return sha256.Sum256([]byte(s)) }

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := NewMem(8)
	var calls atomic.Int32
	compute := func(context.Context) ([]byte, error) {
		calls.Add(1)
		return []byte("value"), nil
	}
	v, src, err := c.Do(context.Background(), key("a"), compute)
	if err != nil || string(v) != "value" || src != SourceMiss {
		t.Fatalf("first Do = %q/%v/%v", v, src, err)
	}
	v, src, err = c.Do(context.Background(), key("a"), compute)
	if err != nil || string(v) != "value" || src != SourceMem {
		t.Fatalf("second Do = %q/%v/%v", v, src, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSingleFlight(t *testing.T) {
	c := NewMem(8)
	var calls atomic.Int32
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), key("shared"), func(context.Context) ([]byte, error) {
				calls.Add(1)
				<-gate
				return []byte("shared-value"), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			results[i] = string(v)
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for i, r := range results {
		if r != "shared-value" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := NewMem(8)
	boom := errors.New("boom")
	var calls atomic.Int32
	fail := func(context.Context) ([]byte, error) { calls.Add(1); return nil, boom }
	if _, _, err := c.Do(context.Background(), key("e"), fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call retries.
	v, src, err := c.Do(context.Background(), key("e"), func(context.Context) ([]byte, error) {
		calls.Add(1)
		return []byte("recovered"), nil
	})
	if err != nil || string(v) != "recovered" || src != SourceMiss {
		t.Fatalf("retry = %q/%v/%v", v, src, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2", n)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (only the success cached)", c.Len())
	}
}

// TestPanickingComputeReleasesFlight: a compute that panics must not leave
// its flight behind. A caller already waiting on it and a later caller of
// the same key both go on to compute instead of blocking forever.
func TestPanickingComputeReleasesFlight(t *testing.T) {
	c := NewMem(8)
	k := key("p")
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), k, func(context.Context) ([]byte, error) {
			<-release
			panic("compute exploded")
		})
	}()
	ok := func(context.Context) ([]byte, error) { return []byte("v"), nil }
	waiter := make(chan error, 1)
	go func() {
		// Issued once the panicking flight is registered, so it waits on it.
		for {
			c.mu.Lock()
			_, inFlight := c.flights[k]
			c.mu.Unlock()
			if inFlight {
				break
			}
			time.Sleep(time.Millisecond)
		}
		_, _, err := c.Do(context.Background(), k, ok)
		waiter <- err
	}()
	for c.Stats().SingleFlightWait == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if v := <-panicked; v != "compute exploded" {
		t.Fatalf("recovered %v, want the compute's panic", v)
	}
	within := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still blocked on the panicked flight after 2s", what)
		}
	}
	within("waiter", waiter)
	later := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), k, ok)
		if err == nil && string(v) != "v" {
			err = fmt.Errorf("value %q, want v", v)
		}
		later <- err
	}()
	within("later Do", later)
}

func TestLRUEviction(t *testing.T) {
	c := NewMem(2)
	ctx := context.Background()
	mk := func(s string) func(context.Context) ([]byte, error) {
		return func(context.Context) ([]byte, error) { return []byte(s), nil }
	}
	c.Do(ctx, key("a"), mk("a"))
	c.Do(ctx, key("b"), mk("b"))
	c.Do(ctx, key("a"), mk("a")) // touch a: b becomes LRU
	c.Do(ctx, key("c"), mk("c")) // evicts b
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, src, _ := c.Do(ctx, key("a"), mk("a")); src != SourceMem {
		t.Fatalf("a evicted (src %v), want retained", src)
	}
	if _, src, _ := c.Do(ctx, key("b"), mk("b")); src != SourceMiss {
		t.Fatalf("b retained (src %v), want evicted", src)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{MemEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := []byte(`{"result":"payload"}`)
	if _, src, err := c1.Do(ctx, key("persist"), func(context.Context) ([]byte, error) { return want, nil }); err != nil || src != SourceMiss {
		t.Fatalf("seed Do = %v/%v", src, err)
	}

	// A fresh cache over the same directory (a resumed process) must serve
	// the entry from disk without computing.
	c2, err := New(Options{MemEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, src, err := c2.Do(ctx, key("persist"), func(context.Context) ([]byte, error) {
		t.Fatal("compute ran despite disk entry")
		return nil, nil
	})
	if err != nil || string(v) != string(want) || src != SourceDisk {
		t.Fatalf("resumed Do = %q/%v/%v", v, src, err)
	}
	// Promoted to memory: a second read is a memory hit.
	if _, src, _ := c2.Do(ctx, key("persist"), nil); src != SourceMem {
		t.Fatalf("src = %v, want mem after promotion", src)
	}
	st := c2.Stats()
	if st.DiskReads != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 disk read / 0 misses", st)
	}
}

func TestDiskCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	mutations := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"bad-magic": func(b []byte) []byte { copy(b, "XXXX"); return b },
		"bad-version": func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
			return b
		},
		"empty": func([]byte) []byte { return nil },
	}
	i := 0
	for name, mutate := range mutations {
		i++
		k := key(fmt.Sprintf("corrupt-%d", i))
		c, err := New(Options{MemEntries: 8, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		want := []byte("good-" + name)
		if _, _, err := c.Do(ctx, k, func(context.Context) ([]byte, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%x.rc", k))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: entry not on disk: %v", name, err)
		}
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}

		// A fresh cache must detect the damage, count it, evict the file,
		// and recompute — never panic or return the corrupt bytes.
		fresh, err := New(Options{MemEntries: 8, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		v, src, err := fresh.Do(ctx, k, func(context.Context) ([]byte, error) { return want, nil })
		if err != nil || string(v) != string(want) || src != SourceMiss {
			t.Fatalf("%s: Do after corruption = %q/%v/%v", name, v, src, err)
		}
		if st := fresh.Stats(); st.DiskCorrupt != 1 {
			t.Fatalf("%s: DiskCorrupt = %d, want 1", name, st.DiskCorrupt)
		}
		// The rewrite must have replaced the corrupt file with a valid one.
		again, _ := New(Options{MemEntries: 8, Dir: dir})
		if v, src, _ := again.Do(ctx, k, nil); string(v) != string(want) || src != SourceDisk {
			t.Fatalf("%s: entry not healed: %q/%v", name, v, src)
		}
	}
}

// TestCrashMidWriteRecovery simulates a process dying inside diskPut: a
// partially written tmp-*.rc never renamed into place, alongside a final
// entry torn mid-write. A fresh cache over the directory must sweep the
// temp debris, treat the torn entry as corrupt (count, evict, recompute),
// and leave healthy entries untouched.
func TestCrashMidWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c1, err := New(Options{MemEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	healthy, torn := key("survivor"), key("torn")
	if _, _, err := c1.Do(ctx, healthy, func(context.Context) ([]byte, error) { return []byte("ok"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Do(ctx, torn, func(context.Context) ([]byte, error) { return []byte("torn-payload"), nil }); err != nil {
		t.Fatal(err)
	}

	// The crash: a half-written temp file that never got renamed...
	entry := encodeEntry([]byte("never finished"))
	tmpPath := filepath.Join(dir, "tmp-123456.rc")
	if err := os.WriteFile(tmpPath, entry[:len(entry)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// ...and a final entry truncated mid-write (torn page).
	tornPath := filepath.Join(dir, fmt.Sprintf("%x.rc", torn))
	raw, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: New sweeps the temp debris.
	c2, err := New(Options{MemEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived New: stat err = %v", err)
	}
	// The torn entry is detected, counted, evicted, and recomputed.
	var recomputed atomic.Int32
	v, src, err := c2.Do(ctx, torn, func(context.Context) ([]byte, error) {
		recomputed.Add(1)
		return []byte("torn-payload"), nil
	})
	if err != nil || string(v) != "torn-payload" || src != SourceMiss || recomputed.Load() != 1 {
		t.Fatalf("torn entry Do = %q/%v/%v (recomputed %d)", v, src, err, recomputed.Load())
	}
	if st := c2.Stats(); st.DiskCorrupt != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", st.DiskCorrupt)
	}
	// The healthy neighbor still reads from disk, untouched by recovery.
	if v, src, err := c2.Do(ctx, healthy, nil); err != nil || string(v) != "ok" || src != SourceDisk {
		t.Fatalf("healthy entry Do = %q/%v/%v", v, src, err)
	}
	// The recompute healed the torn file on disk.
	c3, _ := New(Options{MemEntries: 8, Dir: dir})
	if v, src, _ := c3.Do(ctx, torn, nil); string(v) != "torn-payload" || src != SourceDisk {
		t.Fatalf("torn entry not healed: %q/%v", v, src)
	}
}

func TestGetPut(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{MemEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key("g")); ok {
		t.Fatal("Get hit on empty cache")
	}
	c.Put(key("g"), []byte("gv"))
	v, src, ok := c.Get(key("g"))
	if !ok || string(v) != "gv" || src != SourceMem {
		t.Fatalf("Get = %q/%v/%v", v, src, ok)
	}
	// Fresh process: disk only.
	c2, _ := New(Options{MemEntries: 8, Dir: dir})
	if v, src, ok := c2.Get(key("g")); !ok || string(v) != "gv" || src != SourceDisk {
		t.Fatalf("fresh Get = %q/%v/%v", v, src, ok)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{MemEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("r"), []byte("rv"))
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len = %d after Reset", c.Len())
	}
	// Disk survives Reset (it is a process-memory hook, not a wipe).
	if _, src, ok := c.Get(key("r")); !ok || src != SourceDisk {
		t.Fatalf("disk entry lost on Reset (src %v ok %v)", src, ok)
	}
}

// TestMetricsDocumented pins the cache.* namespace to docs/METRICS.md the
// same way the obs and serve namespaces are pinned: every emitted name
// must appear in the doc.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewMem(8)
	reg := obs.NewRegistry()
	reg.Register(c.Collector())
	snap := reg.Snapshot()
	if len(snap.Values) == 0 {
		t.Fatal("collector emitted nothing")
	}
	for _, v := range snap.Values {
		if !strings.Contains(string(doc), v.Name) {
			t.Errorf("metric %q not documented in docs/METRICS.md", v.Name)
		}
	}
}
