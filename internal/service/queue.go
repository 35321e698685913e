package service

import (
	"errors"
	"slices"
	"sync"
)

// Queue errors surfaced to the HTTP layer.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity and
	// the submission must be retried later (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrQueueClosed means the server is draining (HTTP 503).
	ErrQueueClosed = errors.New("service: job queue closed")
)

// fairQueue is a bounded job queue with per-tenant round-robin fairness:
// each tenant gets its own FIFO, and Pop serves the tenants in rotation,
// so a tenant that floods the queue delays only its own jobs — with K
// active tenants, the next job of any tenant is at most K-1 dequeues
// away, however deep the other tenants' backlogs are. Capacity bounds
// the total across all tenants.
type fairQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	n        int
	closed   bool
	tenants  map[string][]*run
	ring     []string // rotation order; entries may be stale (empty FIFO)
	next     int      // ring cursor
}

func newFairQueue(capacity int) *fairQueue {
	q := &fairQueue{capacity: capacity, tenants: map[string][]*run{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues r under its tenant, failing fast when the queue is at
// capacity (ErrQueueFull) or draining (ErrQueueClosed).
func (q *fairQueue) Push(r *run) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if q.n >= q.capacity {
		return ErrQueueFull
	}
	fifo, ok := q.tenants[r.tenant]
	if !ok || len(fifo) == 0 {
		// First pending job of this tenant: join the rotation at the end,
		// behind every tenant already waiting.
		q.ring = append(q.ring, r.tenant)
	}
	q.tenants[r.tenant] = append(fifo, r)
	q.n++
	q.cond.Signal()
	return nil
}

// Pop blocks until a job is available and returns the next one in
// round-robin tenant order. ok is false when the queue has been closed —
// the worker-pool shutdown signal; jobs still queued at close time are
// returned by Close, not Pop.
func (q *fairQueue) Pop() (r *run, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && q.n == 0 {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	return q.popLocked(), true
}

func (q *fairQueue) popLocked() *run {
	for len(q.ring) > 0 {
		if q.next >= len(q.ring) {
			q.next = 0
		}
		t := q.ring[q.next]
		fifo := q.tenants[t]
		if len(fifo) == 0 {
			// Stale rotation entry (all of the tenant's jobs were removed
			// by cancellation): drop it without advancing the cursor.
			q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
			delete(q.tenants, t)
			continue
		}
		r := fifo[0]
		fifo[0] = nil // let the run go as soon as it is off the queue
		fifo = fifo[1:]
		if len(fifo) == 0 {
			delete(q.tenants, t)
			q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		} else {
			q.tenants[t] = fifo
			q.next++
		}
		q.n--
		return r
	}
	return nil
}

// Remove takes a still-queued run out of its tenant's FIFO (cancellation
// of a queued job), freeing its capacity slot immediately. It reports
// whether r was found; false means a worker already popped it.
func (q *fairQueue) Remove(r *run) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	fifo := q.tenants[r.tenant]
	for i, qr := range fifo {
		if qr == r {
			// Delete clears the vacated slot, so the FIFO's array does not
			// keep the dropped run alive.
			q.tenants[r.tenant] = slices.Delete(fifo, i, i+1)
			q.n--
			// A now-empty FIFO leaves a stale ring entry; popLocked
			// collects it.
			return true
		}
	}
	return false
}

// Len returns the number of queued (not yet running) jobs.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Close drains the queue: every blocked and future Pop returns false,
// every future Push fails with ErrQueueClosed, and the still-queued runs
// are handed back to the caller (the shutdown path cancels them).
func (q *fairQueue) Close() []*run {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	var leftover []*run
	for q.n > 0 {
		if r := q.popLocked(); r != nil {
			leftover = append(leftover, r)
		}
	}
	q.tenants = map[string][]*run{}
	q.ring = nil
	q.cond.Broadcast()
	return leftover
}
