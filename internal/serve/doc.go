// Package serve is the long-running HTTP monitoring service behind
// cmd/fadeserve: it accepts simulation-run submissions over HTTP+JSON,
// runs them on a fixed set of workers with per-tenant fairness, and
// exposes results, cycle-sampled timelines, and live Prometheus telemetry.
//
// The package splits into four layers:
//
//   - api.go — the wire types (SubmitRequest, RunInfo, the error envelope
//     and its stable error codes) and the request body's field-for-field
//     mapping onto runspec.Spec, including the server-side admission
//     limits.
//   - queue.go / tenant.go — the bounded admission queue with round-robin
//     dequeue across tenants, oldest-first load shedding, and the
//     per-tenant token buckets that rate-limit submission.
//   - sched.go — the Scheduler: run lifecycle (queued → running →
//     done/failed/canceled/shed, every terminal transition through
//     endLocked), Options.Workers goroutines reading the admission queue,
//     execution through system.ExecSpec and the shared result cache,
//     cancellation via the context plumbing of internal/system, and
//     graceful drain. A run waits only in the queue, so admission is
//     bounded by exactly Workers running plus QueueCap queued.
//   - server.go — the HTTP surface: routing, the serve.* metrics
//     (request latency histograms, queue depth, admission rejects), and
//     the /metrics exposition combining the server registry with the
//     obs.Hub of recent run snapshots.
//
// Every route, schema, error code, and serve.* metric is documented in
// docs/SERVING.md; a name-coverage test keeps the document exhaustive.
package serve
