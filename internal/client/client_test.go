package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fade/internal/rcache"
	"fade/internal/serve"
)

// sleepRecorder is the Sleep hook for tests: it records every requested
// delay and returns immediately.
type sleepRecorder struct {
	slept []time.Duration
}

func (s *sleepRecorder) sleep(_ context.Context, d time.Duration) error {
	s.slept = append(s.slept, d)
	return nil
}

func fixedRand() float64 { return 0.5 }

// TestCallRetriesThenSucceeds walks the whole retry discipline in one
// scripted conversation: a retryable 503 (computed backoff), a 429 whose
// Retry-After overrides the backoff, then success.
func TestCallRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":{"code":"draining","message":"draining"}}`)
		case 2:
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":{"code":"queue_full","message":"admission queue full"}}`)
		default:
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"value":42}`)
		}
	}))
	defer ts.Close()

	rec := &sleepRecorder{}
	c := New(Options{
		BaseURL:     ts.URL,
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  5 * time.Second,
		Rand:        fixedRand,
		Sleep:       rec.sleep,
	})
	var out struct {
		Value int `json:"value"`
	}
	if err := c.Call(context.Background(), http.MethodGet, "/x", nil, &out); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out.Value != 42 {
		t.Fatalf("decoded value = %d, want 42", out.Value)
	}
	// Attempt 0 failed with no Retry-After: full jitter over
	// min(cap, base<<0) with Rand=0.5 gives exactly 50ms. Attempt 1's 429
	// carried Retry-After: 2 which overrides the computed backoff.
	want := []time.Duration{50 * time.Millisecond, 2 * time.Second}
	if len(rec.slept) != len(want) || rec.slept[0] != want[0] || rec.slept[1] != want[1] {
		t.Fatalf("slept %v, want %v", rec.slept, want)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Throttled != 1 {
		t.Fatalf("stats = %+v, want attempts 3, retries 2, throttled 1", st)
	}
}

// TestCallNonRetryableStopsImmediately: a 400 surfaces as *APIError on
// the first attempt, no sleeping.
func TestCallNonRetryableStopsImmediately(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, `{"error":{"code":"bad_json","message":"decoding submission"}}`)
	}))
	defer ts.Close()

	rec := &sleepRecorder{}
	c := New(Options{BaseURL: ts.URL, Rand: fixedRand, Sleep: rec.sleep})
	err := c.Call(context.Background(), http.MethodPost, "/x", map[string]int{"a": 1}, nil)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if ae.Status != http.StatusBadRequest || ae.Code != serve.ErrCodeBadJSON {
		t.Fatalf("APIError = %+v, want status 400 code bad_json", ae)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1", n)
	}
	if len(rec.slept) != 0 {
		t.Fatalf("slept %v, want no sleeps", rec.slept)
	}
}

// TestCallExhaustsAttempts: a persistently failing server consumes the
// whole attempt budget and the last error comes back.
func TestCallExhaustsAttempts(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":{"code":"internal","message":"boom"}}`)
	}))
	defer ts.Close()

	rec := &sleepRecorder{}
	c := New(Options{BaseURL: ts.URL, MaxAttempts: 3, Rand: fixedRand, Sleep: rec.sleep})
	err := c.Call(context.Background(), http.MethodGet, "/x", nil, nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("error = %v, want *APIError with status 500", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

// TestCallPerAttemptDeadline: a hung server trips the per-attempt
// timeout; the next attempt gets a fresh deadline rather than inheriting
// the dead one.
func TestCallPerAttemptDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()

	rec := &sleepRecorder{}
	c := New(Options{
		BaseURL:        ts.URL,
		RequestTimeout: 25 * time.Millisecond,
		MaxAttempts:    2,
		Rand:           fixedRand,
		Sleep:          rec.sleep,
	})
	if err := c.Call(context.Background(), http.MethodGet, "/x", nil, nil); err == nil {
		t.Fatal("Call succeeded against a hung server")
	}
	if st := c.Stats(); st.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (each under its own deadline)", st.Attempts)
	}
}

// TestCallStopsWhenCallerContextDies: the caller's context ending mid
// conversation beats the retry budget.
func TestCallStopsWhenCallerContextDies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":{"code":"draining","message":"draining"}}`)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(Options{
		BaseURL: ts.URL,
		Rand:    fixedRand,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		},
	})
	err := c.Call(ctx, http.MethodGet, "/x", nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", st.Attempts)
	}
}

// TestSubmitRunIdempotentResubmission drives the real serving stack: the
// first submission simulates, the identical resubmission is served from
// the result cache with a byte-identical result document.
func TestSubmitRunIdempotentResubmission(t *testing.T) {
	cache := rcache.NewMem(16)
	srv := serve.New(serve.Options{
		Workers:       2,
		QueueCap:      8,
		DefaultInstrs: 1_000,
		Cache:         cache,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Tenant: "fabric-test"})
	req := serve.SubmitRequest{Benchmark: "astar", Monitor: "MemLeak", Instrs: 1_000}

	first, err := c.SubmitRun(context.Background(), req, true)
	if err != nil {
		t.Fatalf("first SubmitRun: %v", err)
	}
	if first.State != serve.StateDone || first.Cached {
		t.Fatalf("first run: state %q cached %v, want done/uncached", first.State, first.Cached)
	}
	second, err := c.SubmitRun(context.Background(), req, true)
	if err != nil {
		t.Fatalf("second SubmitRun: %v", err)
	}
	if second.State != serve.StateDone || !second.Cached {
		t.Fatalf("second run: state %q cached %v, want done/cached", second.State, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result differs from simulated result:\n%s\nvs\n%s", first.Result, second.Result)
	}
	if n := cache.Stats().Misses; n != 1 {
		t.Fatalf("simulated %d times, want 1 (resubmission must hit the cache)", n)
	}
	if tn := second.Tenant; tn != "fabric-test" {
		t.Fatalf("tenant = %q, want the X-API-Key identity", tn)
	}
}
