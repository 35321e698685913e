package atpg

import (
	"sync"

	"tpilayout/internal/netlist"
)

// simScratch bundles the value planes and propagation buffers of a
// FaultSim. The buffers are recycled through a sync.Pool so that a sweep
// running six flow levels (each with its own ATPG run) reuses one
// working set instead of reallocating per level.
type simScratch struct {
	good    []uint64
	obs     []uint64
	obsGen  []int32
	faulty  []uint64
	stamp   []int32
	queued  []bool
	buckets [][]netlist.CellID
}

var scratchPool = sync.Pool{New: func() any { return &simScratch{} }}

// getScratch returns a scratch sized for nets/cells/levels with clean
// stamps and queue flags (good values are rewritten by every SimGood, obs
// and faulty values are guarded by stamps; none needs clearing). Growth
// is monotone: a recycled scratch keeps its capacity.
func getScratch(nets, cells, levels int) *simScratch {
	s := scratchPool.Get().(*simScratch)
	s.good = growU64(s.good, nets)
	s.obs = growU64(s.obs, nets)
	s.faulty = growU64(s.faulty, nets)
	s.obsGen = clearedI32(s.obsGen, nets)
	s.stamp = clearedI32(s.stamp, nets)
	if cap(s.queued) < cells {
		s.queued = make([]bool, cells)
	} else {
		s.queued = s.queued[:cells]
		for i := range s.queued {
			s.queued[i] = false
		}
	}
	if cap(s.buckets) < levels {
		s.buckets = make([][]netlist.CellID, levels)
	} else {
		s.buckets = s.buckets[:levels]
		for i := range s.buckets {
			s.buckets[i] = s.buckets[i][:0]
		}
	}
	return s
}

func putScratch(s *simScratch) { scratchPool.Put(s) }

// clearedI32 resizes a stamp buffer and zeroes it.
func clearedI32(w []int32, n int) []int32 {
	if cap(w) < n {
		return make([]int32, n)
	}
	w = w[:n]
	clear(w)
	return w
}

// growU64 resizes a word buffer without clearing (callers fully overwrite
// or stamp-guard the contents).
func growU64(w []uint64, n int) []uint64 {
	if cap(w) < n {
		return make([]uint64, n)
	}
	return w[:n]
}
