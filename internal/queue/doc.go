// Package queue implements the bounded FIFO queues that decouple the event
// producer (application core), the filtering accelerator, and the unfiltered
// event consumer (monitor core) — the "event queue" and "unfiltered event
// queue" of the paper (Fig. 1). Queues record occupancy statistics so the
// experiment harness can regenerate the occupancy CDFs of Fig. 3 and the
// backpressure analyses of Sections 3.2 and 3.4. The occupancy distribution
// holds one sample per cycle, recorded as dwell time: a queue wired to a
// cycle source (RecordOccupancy) adds its size once per sample it held for
// when the size changes, so a cycle that changes nothing costs nothing.
//
// # Observability
//
// Bounded.MetricsCollector(prefix) returns an obs.Collector exporting the
// queue's push/pop/stall counters and occupancy statistics under the
// caller's prefix (queue.meq.* for the event queue, queue.ufq.* for the
// unfiltered queue). See docs/METRICS.md.
package queue
