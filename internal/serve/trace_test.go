package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fade/internal/spans"
)

// TestTraceEndpoint walks the trace route's state machine: 409 while the
// run executes, 404 for unknown ids, 200 with valid Chrome trace JSON (and
// JSONL under ?format=jsonl) once the run is terminal.
func TestTraceEndpoint(t *testing.T) {
	gate := newGateRunner()
	srv := New(Options{Workers: 1, Runner: gate.run})
	defer srv.Close()
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	id := decodeInfo(t, w).ID
	<-gate.started

	w = do(t, h, "GET", "/v1/runs/"+id+"/trace", "", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("running trace status = %d, want 409", w.Code)
	}
	if e := decodeErr(t, w); e.Code != ErrCodeNotReady {
		t.Fatalf("running trace code = %q, want not_ready", e.Code)
	}

	w = do(t, h, "GET", "/v1/runs/nope/trace", "", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown run trace status = %d, want 404", w.Code)
	}

	close(gate.release)
	eventually(t, "run to finish", func() bool {
		return decodeInfo(t, do(t, h, "GET", "/v1/runs/"+id, "", nil)).State == StateDone
	})

	w = do(t, h, "GET", "/v1/runs/"+id+"/trace", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("trace status = %d (body %s)", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	if err := spans.ValidateChromeJSON(w.Body.Bytes()); err != nil {
		t.Fatalf("trace body failed the Chrome validator: %v", err)
	}
	var doc struct {
		OtherData struct {
			TraceID string `json:"traceId"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.TraceID != id {
		t.Fatalf("trace id = %q, want the run id %q", doc.OtherData.TraceID, id)
	}

	w = do(t, h, "GET", "/v1/runs/"+id+"/trace?format=jsonl", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("jsonl trace status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("jsonl trace Content-Type = %q", ct)
	}
	for i, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("jsonl line %d is not JSON: %q", i, line)
		}
	}
}

// TestTraceDisabled: a negative TraceCap turns tracing off server-wide and
// the route reports 404 even for terminal runs.
func TestTraceDisabled(t *testing.T) {
	srv := New(Options{Workers: 1, Runner: instantRunner, TraceCap: -1})
	defer srv.Close()
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs?wait=1", `{"benchmark":"astar","monitor":"MemLeak"}`, nil)
	id := decodeInfo(t, w).ID
	w = do(t, h, "GET", "/v1/runs/"+id+"/trace", "", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("disabled trace status = %d, want 404", w.Code)
	}
}

// TestTraceLinkedDomains runs a real simulation through the server and
// asserts the exported trace links both clock domains under the run's
// trace id: wall spans from the serving path (admit, queue wait, schedule,
// execute, encode) and cycle spans from inside the simulator.
func TestTraceLinkedDomains(t *testing.T) {
	srv := New(Options{Workers: 1})
	defer srv.Close()
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs?wait=1", `{"benchmark":"astar","monitor":"MemLeak","instrs":5000}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("run status = %d (body %s)", w.Code, w.Body.String())
	}
	id := decodeInfo(t, w).ID

	w = do(t, h, "GET", "/v1/runs/"+id+"/trace?format=jsonl", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("trace status = %d", w.Code)
	}
	domains := map[string]bool{}
	wallNames := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var span struct {
			Trace  string `json:"trace"`
			Domain string `json:"domain"`
			Name   string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad jsonl line %q: %v", line, err)
		}
		if span.Trace != id {
			t.Fatalf("span trace id = %q, want %q", span.Trace, id)
		}
		domains[span.Domain] = true
		if span.Domain == "wall" {
			wallNames[span.Name] = true
		}
		if !spans.Known(span.Name) {
			t.Fatalf("span name %q is not registered", span.Name)
		}
	}
	if !domains["wall"] || !domains["cycle"] {
		t.Fatalf("trace domains = %v, want both wall and cycle", domains)
	}
	for _, want := range []string{
		spans.NameServeAdmit, spans.NameServeQueueWait, spans.NameServeSchedule,
		spans.NameServeExecute, spans.NameServeEncode,
	} {
		if !wallNames[want] {
			t.Fatalf("wall span %q missing from the serving path (got %v)", want, wallNames)
		}
	}
}

// TestTraceDirPersists: with TraceDir set, every finished run leaves
// <id>.trace.json on disk — including when the directory must be created.
// The trace is persisted before it is sealed, and the trace endpoint
// serves the sealed trace of a retired run: both exports of a simulated
// run must be the same bytes.
func TestTraceDirPersists(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	srv := New(Options{Workers: 1, TraceDir: dir})
	defer srv.Close()
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs?wait=1", `{"benchmark":"astar","monitor":"MemLeak","instrs":5000}`, nil)
	id := decodeInfo(t, w).ID
	data, err := os.ReadFile(filepath.Join(dir, id+".trace.json"))
	if err != nil {
		t.Fatalf("persisted trace missing: %v", err)
	}
	if err := spans.ValidateChromeJSON(data); err != nil {
		t.Fatalf("persisted trace failed the validator: %v", err)
	}

	tr, ok := srv.Scheduler().Trace(srv.Scheduler().Get(id))
	if !ok || tr.Cap() != tr.Len() {
		t.Fatalf("retired run's trace not sealed (terminal %v, cap %d, len %d)", ok, tr.Cap(), tr.Len())
	}
	if !strings.Contains(string(data), `"domain":"cycle"`) {
		t.Fatalf("persisted trace holds no simulator span:\n%s", data)
	}
	w = do(t, h, "GET", "/v1/runs/"+id+"/trace", "", nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), data) {
		t.Fatalf("sealed trace served (status %d) differs from the trace persisted before sealing:\n%s\n---\n%s",
			w.Code, w.Body.Bytes(), data)
	}
}

// syncBuffer lets the slog handler write from scheduler goroutines while
// the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredLogging: run lifecycle events come out as JSON log lines
// carrying run, tenant, and trace_id attributes.
func TestStructuredLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv := New(Options{Workers: 1, Runner: instantRunner, Logger: logger})
	defer srv.Close()
	h := srv.Handler()

	w := do(t, h, "POST", "/v1/runs?wait=1", `{"benchmark":"astar","monitor":"MemLeak"}`, map[string]string{"X-API-Key": "acme"})
	id := decodeInfo(t, w).ID

	var sawSubmitted, sawFinished bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			Run     string `json:"run"`
			Tenant  string `json:"tenant"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if rec.Run != id {
			continue
		}
		if rec.Tenant != "acme" || rec.TraceID != id {
			t.Fatalf("log line %q: tenant=%q trace_id=%q, want acme/%s", line, rec.Tenant, rec.TraceID, id)
		}
		switch rec.Msg {
		case "run submitted":
			sawSubmitted = true
		case "run finished":
			sawFinished = true
		}
	}
	if !sawSubmitted || !sawFinished {
		t.Fatalf("lifecycle log lines missing: submitted=%v finished=%v in %q", sawSubmitted, sawFinished, buf.String())
	}
}
