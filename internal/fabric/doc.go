// Package fabric is the fault-tolerant distributed sweep layer: a
// coordinator that enumerates an experiment's cells (experiments.CellsFor),
// leases them to workers over HTTP, and assembles the final table
// byte-identically to a local run via the content-addressed result cache.
//
// The unit of distribution is the cell's canonical runspec hash — the
// same identity the result cache uses — so every exchange is
// idempotent: a worker that executes a cell twice, a completion that
// arrives after its lease expired, or a retried upload all converge on
// the same cache entry. Robustness comes from the lease state machine
// (pending → leased → done, with expiry re-queueing a cell up to
// Options.MaxRetries times before it is marked exhausted) and from the
// degradation ladder: exhausted cells — and, after a no-worker grace
// window, all pending cells — are executed locally by the coordinator
// itself, so a sweep never stalls on a dead fleet. When even local
// execution fails, the sweep returns ErrIncomplete naming the failed
// cells; a partial table is flagged, never silently truncated.
//
// The coordinator's Drive loop has no fixed poll. It wakes on a state
// change (a cell done, failed, exhausted or re-queued, or the set
// sealed), on the next lease deadline, or when the grace window ends,
// whichever comes first, so a sweep returns as soon as its last cell
// lands.
//
// Workers (RunWorker, cmd/fadeworker) are thin loops over the
// internal/client retrying HTTP client: lease, heartbeat at a third of
// the TTL, execute through their own result cache, upload the encoded
// outcome, repeat until the coordinator reports the sweep done. The wire
// protocol is the fadeserve idiom — JSON bodies, the
// {"error":{"code","message"}} envelope, Retry-After backpressure — see
// docs/SERVING.md for the endpoint reference and DESIGN.md §4.8 for the
// architecture.
package fabric
