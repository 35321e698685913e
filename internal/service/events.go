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
// balanced span tree.
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
// workers and fault-simulation shards concurrently.
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

// snapshot returns all events retained so far. The archive calls it at
// retirement, after Close, to persist the run's full trace. Retention
// survives closing: the broadcaster lives in the run's record, so every
// retained job still replays its run's stream over SSE.
func (b *broadcaster) snapshot() []telemetry.Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]telemetry.Event(nil), b.events...)
}
