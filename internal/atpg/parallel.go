package atpg

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tpilayout/internal/fault"
	"tpilayout/internal/supervise"
	"tpilayout/internal/telemetry"
)

// simPool shards fault-parallel simulation across a set of FaultSim
// instances. All shards share one good-circuit value plane (written only
// by SimGood, between parallel sections) while each owns its private
// obs cache and propagation state, so Detects runs concurrently without
// locking.
//
// Every result is merged by fault index, never by completion order, so a
// pool of any size produces bit-identical output to a serial FaultSim.
//
// The pool is supervised: its context cancels shard loops at chunk
// granularity, and a panic on a shard goroutine is captured (with that
// goroutine's stack) and re-raised on the supervising goroutine instead
// of crashing the process — sibling shards drain and stop.
type simPool struct {
	ctx  context.Context
	sims []*FaultSim

	// Telemetry: batches counts SimGood rounds (master shard, serial);
	// work[i] counts Detects calls on shard i — each shard index is
	// owned by exactly one goroutine per parFor call and reads happen
	// after its WaitGroup, so plain ints are race-free. Flushed once at
	// end of run.
	batches int64
	work    []int64

	// Latency distributions, present only when the run is instrumented
	// (see instrument): hBatch times each SimGood round, detectNS each
	// detectEach call (on the calling goroutine; flushed at end of run).
	hBatch   *telemetry.Histogram
	detectNS *telemetry.LocalHist
}

// instrument attaches the pool's latency histograms to the ATPG stage
// span. A nil span leaves the pool uninstrumented: every hot-path site
// then skips its time.Now pair entirely.
func (p *simPool) instrument(sp *telemetry.Span) {
	if sp == nil {
		return
	}
	p.hBatch = sp.Histogram("atpg.sim_batch_ns")
	p.detectNS = sp.Histogram("atpg.sim_detect_ns").Local()
}

// newSimPool builds a pool of workers shards over the view. workers <= 0
// selects GOMAXPROCS; workers == 1 degenerates to a serial simulator with
// no goroutine overhead.
func newSimPool(ctx context.Context, v *View, workers int) *simPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &simPool{ctx: ctx, sims: make([]*FaultSim, workers), work: make([]int64, workers)}
	p.sims[0] = NewFaultSim(v)
	for i := 1; i < workers; i++ {
		p.sims[i] = p.sims[0].NewShard()
	}
	return p
}

// Release returns every shard's propagation buffers to the scratch pool.
func (p *simPool) Release() {
	for _, fs := range p.sims {
		fs.Release()
	}
}

// NewBatch allocates an empty batch for the pool's view.
func (p *simPool) NewBatch() *Batch { return p.sims[0].NewBatch() }

// SimGood simulates the fault-free circuit for the batch on the master
// shard; the shared good plane becomes visible to every shard, and every
// shard's obs cache is invalidated.
func (p *simPool) SimGood(b *Batch) {
	p.batches++
	if p.hBatch == nil {
		p.sims[0].SimGood(b)
		return
	}
	t0 := time.Now()
	p.sims[0].SimGood(b)
	p.hBatch.Observe(int64(time.Since(t0)))
}

// detectEach fills out[i] with the detection word of fault class reps[i]
// against the last SimGood batch, sharding the fault list across the
// pool. Positions rejected by include get 0. include must not mutate
// anything (it is called concurrently); out must have len(reps). When the
// pool's context is cancelled mid-call, out is left partially filled —
// the caller must observe ctx.Err() before using it.
func (p *simPool) detectEach(reps []int32, set *fault.Set, b *Batch, include func(i int) bool, out []uint64) {
	var t0 time.Time
	if p.detectNS != nil {
		t0 = time.Now()
	}
	parFor(p.ctx, len(reps), len(p.sims), func(shard, i int) {
		if include(i) {
			p.work[shard]++
			out[i] = p.sims[shard].Detects(set.Faults[reps[i]], b)
		} else {
			out[i] = 0
		}
	})
	if p.detectNS != nil {
		p.detectNS.Observe(int64(time.Since(t0)))
	}
}

// parFor runs fn(shard, i) for every i in [0, n), distributing chunks of
// iterations over the given number of goroutines. Each shard index is
// held by exactly one goroutine, so fn may freely use per-shard state.
//
// Supervision semantics: a nil-able ctx cancels the loop between chunks
// (remaining iterations are skipped — the caller is expected to check
// ctx.Err() and discard the partial output). If fn panics on a worker
// goroutine, the panic is recovered there (capturing that goroutine's
// stack), the remaining workers stop at their next chunk boundary, and
// the first panic is re-raised on the calling goroutine as a
// *supervise.PanicError once all workers have drained — one poisoned
// work unit never kills the process or deadlocks siblings.
func parFor(ctx context.Context, n, workers int, fn func(shard, i int)) {
	if workers > n {
		workers = n
	}
	// Chunked work stealing: big enough to amortize the atomic, small
	// enough to balance the wildly uneven per-fault cost (a fault whose
	// stem is not yet in the shard's obs cache pays its propagation).
	const chunk = 32
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				fn(0, i)
			}
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Pointer[supervise.PanicError]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, supervise.AsPanicError(r))
				}
			}()
			for {
				if panicked.Load() != nil || (ctx != nil && ctx.Err() != nil) {
					return
				}
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(shard, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		panic(pe)
	}
}
