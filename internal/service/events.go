package service

import (
	"context"
	"sync"

	"tpilayout/internal/telemetry"
)

// broadcaster is the live event surface of one run: a telemetry.Sink
// that retains every span event in order and wakes streaming
// subscribers as new events land. Retention makes the stream replayable
// — a subscriber that connects mid-run (or a coalesced submission that
// attached after the flow started) still sees the trace from its first
// event, so the NDJSON a client collects over SSE always parses as a
// balanced span tree. Once the run is archived its record lets go of
// the broadcaster (runRecord.retained) and a retired job's stream is
// read back from the archive; a subscriber already streaming keeps the
// broadcaster it captured until it has read every event.
type broadcaster struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []telemetry.Event
	closed bool
}

func newBroadcaster() *broadcaster {
	b := &broadcaster{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Emit implements telemetry.Sink. The flow's tracer calls it from sweep
// workers concurrently.
func (b *broadcaster) Emit(e telemetry.Event) {
	b.mu.Lock()
	if !b.closed {
		b.events = append(b.events, e)
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Close marks the stream complete: subscribers drain what is retained
// and then see ok=false. Idempotent.
func (b *broadcaster) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// wake unblocks all waiting subscribers so they can re-check their
// context; context.AfterFunc(ctx, b.wake) turns a client disconnect
// into a prompt return from next.
func (b *broadcaster) wake() { b.cond.Broadcast() }

// len returns how many events the stream retains so far.
func (b *broadcaster) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// next blocks until events beyond index from exist, then returns the
// new tail. ok=false means the stream is over: either the broadcaster
// closed and everything up to from was already delivered, or ctx ended.
func (b *broadcaster) next(ctx context.Context, from int) (tail []telemetry.Event, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if from < len(b.events) {
			return b.events[from:], true
		}
		if b.closed || ctx.Err() != nil {
			return nil, false
		}
		b.cond.Wait()
	}
}
