package serve

import "sync"

// fairQueue is the bounded admission queue between submission and the
// workers, and the only place a run waits. Runs are FIFO within a
// tenant; dequeue round-robins across tenants with queued work, so one
// tenant flooding the queue cannot starve another: with tenants A (many
// queued) and B (one queued), B's run goes out on the very next rotation
// rather than behind all of A's.
//
// The queue supports oldest-first load shedding (shedOldest) for the
// memory-pressure path and lazy discard of runs that end while queued:
// the scheduler marks the run (run.canceledWhileQueued) and pop skips it,
// so ending a queued run never needs the queue lock.
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	capacity int
	size     int
	closed   bool

	// tenants holds each tenant's FIFO; ring is the round-robin rotation
	// over tenants that currently have queued work.
	tenants map[string][]*Run
	ring    []string
	next    int
}

func newFairQueue(capacity int) *fairQueue {
	q := &fairQueue{capacity: capacity, tenants: make(map[string][]*Run)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// errQueue distinguishes push failures.
type errQueue int

const (
	pushOK errQueue = iota
	pushFull
	pushClosed
)

// push enqueues r for its tenant.
func (q *fairQueue) push(r *Run) errQueue {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return pushClosed
	}
	if q.size >= q.capacity {
		return pushFull
	}
	fifo := q.tenants[r.Tenant]
	if len(fifo) == 0 {
		// Tenant (re)joins the rotation at the end: it waits at most one
		// full rotation before its first dequeue.
		q.ring = append(q.ring, r.Tenant)
	}
	q.tenants[r.Tenant] = append(fifo, r)
	q.size++
	q.cond.Signal()
	return pushOK
}

// pop blocks until a run is available or the queue is closed and drained,
// returning ok=false in the latter case. Canceled runs are discarded
// silently. Dequeue order is round-robin across tenants, FIFO within one.
func (q *fairQueue) pop() (*Run, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for q.size == 0 {
			if q.closed {
				return nil, false
			}
			q.cond.Wait()
		}
		r := q.popLocked()
		if r.canceledWhileQueued.Load() {
			continue
		}
		return r, true
	}
}

// popLocked removes and returns the next run in rotation order. The caller
// holds q.mu and has checked size > 0.
func (q *fairQueue) popLocked() *Run {
	if q.next >= len(q.ring) {
		q.next = 0
	}
	t := q.ring[q.next]
	fifo := q.tenants[t]
	r := fifo[0]
	fifo[0] = nil
	fifo = fifo[1:]
	if len(fifo) == 0 {
		delete(q.tenants, t)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// q.next now points at the tenant after the removed one; no
		// advance needed.
	} else {
		q.tenants[t] = fifo
		q.next++
	}
	q.size--
	return r
}

// shedOldest removes and returns the oldest queued run across all tenants
// (by admission sequence number), or nil when the queue is empty. Used by
// the memory-pressure load shedder: the work that has waited longest is
// also the most likely to be stale to its submitter.
func (q *fairQueue) shedOldest() *Run {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size > 0 {
		// Per-tenant FIFOs mean each tenant's oldest is its head; the
		// global oldest is the minimum over heads.
		var bestT string
		var best *Run
		for t, fifo := range q.tenants {
			if best == nil || fifo[0].seq < best.seq {
				bestT, best = t, fifo[0]
			}
		}
		fifo := q.tenants[bestT][1:]
		if len(fifo) == 0 {
			delete(q.tenants, bestT)
			for i, t := range q.ring {
				if t == bestT {
					q.ring = append(q.ring[:i], q.ring[i+1:]...)
					if q.next > i {
						q.next--
					}
					break
				}
			}
		} else {
			q.tenants[bestT] = fifo
		}
		q.size--
		if best.canceledWhileQueued.Load() {
			continue // already canceled; shed the next-oldest instead
		}
		return best
	}
	return nil
}

// depth returns the current queue occupancy (canceled-but-unpopped runs
// included until their lazy discard).
func (q *fairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// queuedTenants returns the number of tenants with queued work.
func (q *fairQueue) queuedTenants() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ring)
}

// close stops admission; pop keeps draining what is queued and then
// reports ok=false.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
