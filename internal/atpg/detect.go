package atpg

import (
	"context"
	"time"

	"tpilayout/internal/fault"
	"tpilayout/internal/telemetry"
)

// detectChunk is the number of detect-loop positions between two
// cancellation checks.
const detectChunk = 32

// simulator is the run's one FaultSim under the run's context, with the
// fault-simulation telemetry around it. It serves the three detect
// passes: fault dropping, the top-up coverage check and reverse
// compaction.
type simulator struct {
	*FaultSim
	ctx context.Context

	// batches counts SimGood rounds, detects counts Detects calls;
	// flushed once at end of run.
	batches, detects int64

	// Latency distributions on the ATPG stage span: hBatch times each
	// SimGood round, detectNS each detectEach call. Both are nil when the
	// run is uninstrumented, and every hot-path site then skips its
	// time.Now pair entirely.
	hBatch, detectNS *telemetry.Hist
}

// newSimulator builds the run's simulator over the view, recording into
// the ATPG stage span sp (nil for none). Call Release when done.
func newSimulator(ctx context.Context, v *View, sp *telemetry.Span) *simulator {
	return &simulator{
		FaultSim: NewFaultSim(v),
		ctx:      ctx,
		hBatch:   sp.Hist("atpg.sim_batch_ns"),
		detectNS: sp.Hist("atpg.sim_detect_ns"),
	}
}

// SimGood simulates the fault-free circuit for the batch, counting (and,
// when instrumented, timing) the round.
func (s *simulator) SimGood(b *Batch) {
	s.batches++
	if s.hBatch == nil {
		s.FaultSim.SimGood(b)
		return
	}
	t0 := time.Now()
	s.FaultSim.SimGood(b)
	s.hBatch.Observe(int64(time.Since(t0)))
}

// detectEach computes, against the last SimGood batch, the detection
// word of every fault class reps[i] that want(i) accepts, and calls
// hit(i, w) for each nonzero word as soon as it is computed. Both
// callbacks of position i touch only position i's state, so a word
// applied early cannot change another position's outcome. The context
// is checked every detectChunk positions; a cancel ends the loop early,
// and the caller must observe ctx.Err() before trusting what it applied.
func (s *simulator) detectEach(reps []int32, set *fault.Set, b *Batch, want func(i int) bool, hit func(i int, w uint64)) {
	var t0 time.Time
	if s.detectNS != nil {
		t0 = time.Now()
	}
	for i, r := range reps {
		if i%detectChunk == 0 && s.ctx.Err() != nil {
			break
		}
		if !want(i) {
			continue
		}
		s.detects++
		if w := s.Detects(set.Faults[r], b); w != 0 {
			hit(i, w)
		}
	}
	if s.detectNS != nil {
		s.detectNS.Observe(int64(time.Since(t0)))
	}
}
