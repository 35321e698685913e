package atpg

import (
	"context"
	"time"

	"tpilayout/internal/fault"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
)

// detectChunk is the number of detect-loop positions between two
// cancellation checks.
const detectChunk = 32

// faultSim is a 64-way parallel-pattern fault simulator over a
// capture-mode view that simulates each fan-out-free region once: one
// good-circuit simulation per 64-pattern batch, then, per region output
// (stem) a fault needs, one event-driven propagation of the stem's
// complement to the sinks. A fault inside the region reaches the stem
// along a single path, so its detection word is its activation word
// ANDed with the sensitisation of each gate on that path and the stem's
// observability — critical-path tracing inside fan-out-free regions. The
// words are exact: each bit is an independent pattern, and nothing
// reconverges inside a region. All traversals run over the view's flat
// CSR adjacency. A run has one, under the run's context; it serves the
// three detect passes: fault dropping, the top-up coverage check and
// reverse compaction.
type faultSim struct {
	v   *View
	ctx context.Context

	good []uint64 // per net, 64 parallel pattern values
	// gen counts SimGood batches, so one SimGood invalidates the obs
	// cache.
	gen int32

	// obs[n], valid when obsGen[n] == gen, is the word of patterns on
	// which complementing net n reaches a sink.
	obs    []uint64
	obsGen []int32

	faulty []uint64 // copy-on-write overlay, valid when stamp matches
	stamp  []int32
	epoch  int32

	buckets [][]netlist.CellID
	queued  []bool

	// batches counts SimGood rounds, detects the Detects calls of
	// detectEach, props stem propagations; flushed once at end of run.
	batches, detects, props int64

	// Latency distributions on the ATPG stage span: hBatch times each
	// SimGood round, detectNS each detectEach call. Both are nil when the
	// run is uninstrumented, and every hot-path site then skips its
	// time.Now pair entirely.
	hBatch, detectNS *telemetry.Hist
}

// newFaultSim builds the fault simulator for the view under ctx,
// recording into the ATPG stage span sp (nil for none).
func newFaultSim(ctx context.Context, v *View, sp *telemetry.Span) *faultSim {
	nets := len(v.N.Nets)
	return &faultSim{
		v:        v,
		ctx:      ctx,
		good:     make([]uint64, nets),
		obs:      make([]uint64, nets),
		obsGen:   make([]int32, nets),
		faulty:   make([]uint64, nets),
		stamp:    make([]int32, nets),
		buckets:  make([][]netlist.CellID, v.MaxLevel+2),
		queued:   make([]bool, len(v.N.Cells)),
		hBatch:   sp.Hist("atpg.sim_batch_ns"),
		detectNS: sp.Hist("atpg.sim_detect_ns"),
	}
}

// Batch is up to 64 test patterns in transposed form: Words[i] carries bit
// b = value of view source i in pattern b. N is the number of valid
// patterns (low bits).
type Batch struct {
	Words []uint64
	N     int
}

// NewBatch allocates an empty batch for the view.
func (fs *faultSim) NewBatch() *Batch {
	return &Batch{Words: make([]uint64, len(fs.v.Sources))}
}

// Reset empties the batch for reuse.
func (b *Batch) Reset() {
	for i := range b.Words {
		b.Words[i] = 0
	}
	b.N = 0
}

// SetPattern writes pattern values (one int8 0/1 per source; -1 bits are
// taken as 0) into slot bit of the batch.
func (b *Batch) SetPattern(bit int, vals []int8) {
	mask := uint64(1) << uint(bit)
	for i, v := range vals {
		if v == 1 {
			b.Words[i] |= mask
		} else {
			b.Words[i] &^= mask
		}
	}
	if bit+1 > b.N {
		b.N = bit + 1
	}
}

// mask returns the valid-pattern mask of the batch.
func (b *Batch) mask() uint64 {
	if b.N >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(b.N)) - 1
}

// SimGood simulates the fault-free circuit for the batch, leaving per-net
// values in place for subsequent Detects calls, and invalidates the obs
// cache. It counts (and, when instrumented, times) the round.
func (fs *faultSim) SimGood(b *Batch) {
	fs.batches++
	var t0 time.Time
	if fs.hBatch != nil {
		t0 = time.Now()
	}
	v := fs.v
	fs.gen++
	for i := range fs.good {
		fs.good[i] = 0
		if v.ConstVal[i] == 1 {
			fs.good[i] = ^uint64(0)
		}
	}
	for i, src := range v.Sources {
		fs.good[src] = b.Words[i]
	}
	var ins [8]uint64
	for _, ci := range v.Order {
		out := v.CellOut[ci]
		if v.ConstVal[out] >= 0 {
			continue
		}
		fanin := v.fanin(ci)
		for p, net := range fanin {
			ins[p] = fs.good[net]
		}
		fs.good[out] = logicsim.EvalWords(v.CellKind[ci], ins[:len(fanin)])
	}
	if fs.hBatch != nil {
		fs.hBatch.Observe(int64(time.Since(t0)))
	}
}

// detectEach computes, against the last SimGood batch, the detection
// word of every fault class reps[i] that want(i) accepts, and calls
// hit(i, w) for each nonzero word as soon as it is computed. Both
// callbacks of position i touch only position i's state, so a word
// applied early cannot change another position's outcome. The context
// is checked every detectChunk positions; a cancel ends the loop early,
// and the caller must observe ctx.Err() before trusting what it applied.
func (fs *faultSim) detectEach(reps []int32, set *fault.Set, b *Batch, want func(i int) bool, hit func(i int, w uint64)) {
	var t0 time.Time
	if fs.detectNS != nil {
		t0 = time.Now()
	}
	for i, r := range reps {
		if i%detectChunk == 0 && fs.ctx.Err() != nil {
			break
		}
		if !want(i) {
			continue
		}
		fs.detects++
		if w := fs.Detects(set.Faults[r], b); w != 0 {
			hit(i, w)
		}
	}
	if fs.detectNS != nil {
		fs.detectNS.Observe(int64(time.Since(t0)))
	}
}

// fval reads the faulty value of a net under the current overlay.
func (fs *faultSim) fval(net netlist.NetID) uint64 {
	if fs.stamp[net] == fs.epoch {
		return fs.faulty[net]
	}
	return fs.good[net]
}

func (fs *faultSim) setFval(net netlist.NetID, w uint64) {
	fs.stamp[net] = fs.epoch
	fs.faulty[net] = w
}

// Detects returns the word of patterns of the last SimGood batch that
// detect fault f (observe a difference at a sink).
func (fs *faultSim) Detects(f fault.Fault, b *Batch) uint64 {
	sa := uint64(0)
	if f.SA == 1 {
		sa = ^uint64(0)
	}
	act := (fs.good[f.Net] ^ sa) & b.mask()
	if act == 0 {
		return 0 // fault never activated in this batch
	}
	if f.Load == fault.StemLoad {
		return act & fs.observe(f.Net)
	}
	ld := fs.v.fanout(f.Net)[f.Load]
	switch {
	case ld.Cell == netlist.NoCell:
		return act // branch feeding a primary output directly
	case !fs.v.Comb(ld.Cell):
		// Branch into a flip-flop pin: observable iff the pin is captured
		// (the d pin); si/se branches are left to the scan shift/flush
		// tests.
		c := &fs.v.N.Cells[ld.Cell]
		if c.Cell.Kind.IsSequential() && c.Cell.FindInput("d") == int(ld.Pin) {
			return act
		}
		return 0
	}
	return act & fs.through(ld.Cell, int(ld.Pin), fs.observe(fs.v.CellOut[ld.Cell]))
}

// through returns the patterns of w on which complementing input pin of
// cell ci complements its output: 0 through a cell with a frozen output.
func (fs *faultSim) through(ci netlist.CellID, pin int, w uint64) uint64 {
	out := fs.v.CellOut[ci]
	if w == 0 || fs.v.ConstVal[out] >= 0 {
		return 0
	}
	var ins [8]uint64
	fanin := fs.v.fanin(ci)
	for p, net := range fanin {
		ins[p] = fs.good[net]
	}
	ins[pin] = ^ins[pin]
	return w & (fs.good[out] ^ logicsim.EvalWords(fs.v.CellKind[ci], ins[:len(fanin)]))
}

// observe returns the word of patterns on which complementing net n
// reaches a sink, caching it for the rest of the batch: a stem's word is
// its propagation, a region net's its successor's word through the gate.
func (fs *faultSim) observe(n netlist.NetID) uint64 {
	if fs.obsGen[n] == fs.gen {
		return fs.obs[n]
	}
	var w uint64
	if c := fs.v.regionCell[n]; c == netlist.NoCell {
		w = fs.propagate(n)
	} else {
		w = fs.through(c, int(fs.v.regionPin[n]), fs.observe(fs.v.CellOut[c]))
	}
	fs.obs[n], fs.obsGen[n] = w, fs.gen
	return w
}

// propagate complements stem n on every pattern of the batch and returns
// the word of patterns on which the difference reaches a sink: one
// event-driven pass over n's fan-out cone.
func (fs *faultSim) propagate(n netlist.NetID) uint64 {
	if fs.v.IsSink[n] {
		return ^uint64(0)
	}
	fs.props++
	fs.epoch++
	fs.setFval(n, ^fs.good[n])
	fs.enqueueLoads(n)
	var det uint64
	var ins [8]uint64
	for lvl := 1; lvl < len(fs.buckets); lvl++ {
		bucket := fs.buckets[lvl]
		for _, ci := range bucket {
			fs.queued[ci] = false
			out := fs.v.CellOut[ci]
			if fs.v.ConstVal[out] >= 0 {
				continue
			}
			fanin := fs.v.fanin(ci)
			for p, net := range fanin {
				ins[p] = fs.fval(net)
			}
			nf := logicsim.EvalWords(fs.v.CellKind[ci], ins[:len(fanin)])
			if nf == fs.good[out] {
				continue
			}
			fs.setFval(out, nf)
			if fs.v.IsSink[out] {
				det |= nf ^ fs.good[out]
			}
			fs.enqueueLoads(out)
		}
		fs.buckets[lvl] = bucket[:0]
	}
	return det
}

// enqueueLoads queues the combinational loads of a net (combLoads is
// pre-filtered to live combinational cells).
func (fs *faultSim) enqueueLoads(net netlist.NetID) {
	for _, ci := range fs.v.combLoads(net) {
		if !fs.queued[ci] {
			fs.queued[ci] = true
			fs.buckets[fs.v.Level[ci]] = append(fs.buckets[fs.v.Level[ci]], ci)
		}
	}
}
