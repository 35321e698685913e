package place

import (
	"context"

	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
)

// region is a rectangular slice of the core: rows [r0,r1) and the x span
// [x0,x1) within them.
type region struct {
	r0, r1 int
	x0, x1 float64
}

// bisector performs recursive min-cut bisection with an FM-style
// refinement pass. Nets above maxNetSize pins (clocks, scan-enable) are
// ignored for cut purposes, as in production placers.
//
// All working storage lives on the bisector and is reused across the
// (strictly serial) recursion: local net numbering uses epoch-stamped
// arrays instead of a per-node map, incidence lists are flat CSR arrays
// built in two walks per node, and the FM gain buckets keep their capacity
// between passes. A move updates its neighbours' gains by the classical FM
// delta on critical nets only, and the best-bucket scan starts at a
// maintained top index. The cut decisions are bit-identical to a bisector
// that recomputes every neighbour's gain and scans every bucket (kept as
// refBisector in reference_test.go): every iteration order and every
// bucket push the FM tie-breaking depends on is preserved.
type bisector struct {
	n *netlist.Netlist

	// cellNets lists the (small) nets incident to each cell, CSR-packed:
	// cellNetBuf[cellNetIdx[c]:cellNetIdx[c+1]].
	cellNetIdx []int32
	cellNetBuf []int32
	rowH       float64

	// Per-node scratch (valid only between a partition call and the next).
	side    []uint8
	width   []float64        // cell widths in node order
	spill   []netlist.CellID // stable-split overflow buffer
	netEp   int32
	netSeen []int32 // per-global-net epoch stamp
	netPos  []int32 // per-global-net preliminary local index
	keep    []int32 // preliminary local index -> kept index (or -1)

	// Local incidence CSR, rebuilt per node.
	memberIdx []int32
	members   []int32
	localIdx  []int32
	localBuf  []int32
	cursor    []int32

	// FM pass scratch.
	cnt     [][2]int32
	gain    []int32
	locked  []bool
	buckets [2*maxGain + 1][]int32
	moves   []move

	// stats accumulates the bisection's telemetry (serial recursion, so
	// plain ints); place.global flushes it into the stage span once.
	stats struct {
		cuts, passes, movesKept, movesTried int64
	}
	// hCutDelta is the per-FM-pass cut-improvement distribution
	// (place.fm_cut_delta); nil (and free) when telemetry is off.
	hCutDelta *telemetry.Hist
}

type move struct {
	cell  int32
	delta int32 // cut change (negative = improvement)
}

const (
	maxNetSize = 48
	maxGain    = 32
	leafCells  = 3 // stop splitting below this population
	fmPasses   = 2 // FM refinement passes per cut
)

func newBisector(n *netlist.Netlist) *bisector {
	b := &bisector{n: n, rowH: n.Lib.RowHeight}
	csr := n.CSR()
	// Count pins per net to exclude global nets.
	pinCount := make([]int32, len(n.Nets))
	for id := range n.Nets {
		c := int32(csr.FanoutLen(netlist.NetID(id)))
		if n.Nets[id].Driver != netlist.NoCell {
			c++
		}
		pinCount[id] = c
	}
	eligible := func(net netlist.NetID) bool {
		return net != netlist.NoNet && n.Nets[net].Const < 0 &&
			pinCount[net] <= maxNetSize && pinCount[net] >= 2
	}
	// Two-pass CSR build of the per-cell incident-net lists, deduplicating
	// within each cell's handful of pins.
	var tmp [16]int32
	cellUnique := func(ci int) []int32 {
		c := &b.n.Cells[ci]
		u := tmp[:0]
		addU := func(net netlist.NetID) {
			if !eligible(net) {
				return
			}
			for _, x := range u {
				if x == int32(net) {
					return
				}
			}
			u = append(u, int32(net))
		}
		for _, in := range c.Ins {
			addU(in)
		}
		addU(c.Out)
		return u
	}
	b.cellNetIdx = make([]int32, len(n.Cells)+1)
	total := 0
	for ci := range n.Cells {
		if !n.Cells[ci].Dead {
			total += len(cellUnique(ci))
		}
		b.cellNetIdx[ci+1] = int32(total)
	}
	b.cellNetBuf = make([]int32, 0, total)
	for ci := range n.Cells {
		if !n.Cells[ci].Dead {
			b.cellNetBuf = append(b.cellNetBuf, cellUnique(ci)...)
		}
	}

	b.netSeen = make([]int32, len(n.Nets))
	b.netPos = make([]int32, len(n.Nets))
	// The root node is the largest: size the append-filled scratch for it.
	b.cursor = make([]int32, 0, len(n.Nets))
	b.localBuf = make([]int32, 0, total)
	return b
}

func (b *bisector) cellNets(c netlist.CellID) []int32 {
	return b.cellNetBuf[b.cellNetIdx[c]:b.cellNetIdx[c+1]]
}

// run recursively splits cells over reg, calling emit for each cell with
// its final leaf region. One cut (partition plus its FM refinement) is
// the cancellation work unit: the context is checked at every recursion
// node and the whole placement is abandoned on cancel.
func (b *bisector) run(ctx context.Context, cells []netlist.CellID, reg region, emit func(netlist.CellID, region)) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	rows := reg.r1 - reg.r0
	wide := reg.x1 - reg.x0
	if len(cells) <= leafCells || (rows <= 1 && wide <= 16*b.n.Lib.SiteWidth) {
		for _, c := range cells {
			emit(c, reg)
		}
		return nil
	}
	var regA, regB region
	var fracA float64
	if float64(rows)*b.rowH >= wide && rows > 1 {
		mid := reg.r0 + rows/2
		regA = region{r0: reg.r0, r1: mid, x0: reg.x0, x1: reg.x1}
		regB = region{r0: mid, r1: reg.r1, x0: reg.x0, x1: reg.x1}
		fracA = float64(mid-reg.r0) / float64(rows)
	} else {
		mid := reg.x0 + wide/2
		regA = region{r0: reg.r0, r1: reg.r1, x0: reg.x0, x1: mid}
		regB = region{r0: reg.r0, r1: reg.r1, x0: mid, x1: reg.x1}
		fracA = 0.5
	}
	b.stats.cuts++
	sideOf := b.partition(cells, fracA)
	// Stable in-place split: side-0 cells keep their order as the prefix,
	// side-1 cells follow in order (the recursion owns this subrange, so
	// reordering it is free).
	spill := b.spill[:0]
	k := 0
	for i, c := range cells {
		if sideOf[i] == 0 {
			cells[k] = c
			k++
		} else {
			spill = append(spill, c)
		}
	}
	copy(cells[k:], spill)
	b.spill = spill[:0]
	if err := b.run(ctx, cells[:k], regA, emit); err != nil {
		return err
	}
	return b.run(ctx, cells[k:], regB, emit)
}

// grow resizes an int32 scratch slice to n zeroed entries.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// partition splits cells into side 0 (area fraction fracA) and side 1,
// minimizing the number of cut nets with FM passes. The returned slice is
// scratch owned by the bisector — valid until the next partition call.
func (b *bisector) partition(cells []netlist.CellID, fracA float64) []uint8 {
	n := len(cells)
	if cap(b.side) < n {
		b.side = make([]uint8, n)
	}
	side := b.side[:n]
	if cap(b.width) < n {
		b.width = make([]float64, n)
	}
	width := b.width[:n]
	totalArea := 0.0
	for i, c := range cells {
		width[i] = b.n.Cells[c].Cell.Width
		totalArea += width[i]
	}
	targetA := totalArea * fracA
	// Initial split: prefix by area (inherits the caller's ordering,
	// which preserves locality from the parent cut).
	areaA := 0.0
	for i := range cells {
		if areaA < targetA {
			side[i] = 0
			areaA += width[i]
		} else {
			side[i] = 1
		}
	}

	// Preliminary local net numbering in first-seen order, via epoch
	// stamps on two netlist-sized arrays (no per-node map), counting each
	// net's incidences in the same walk.
	b.netEp++
	ep := b.netEp
	cnt := b.cursor[:0]
	for _, c := range cells {
		for _, net := range b.cellNets(c) {
			if b.netSeen[net] != ep {
				b.netSeen[net] = ep
				b.netPos[net] = int32(len(cnt))
				cnt = append(cnt, 0)
			}
			cnt[b.netPos[net]]++
		}
	}
	b.cursor = cnt
	numNets := len(cnt)
	// Keep only nets with at least two members in this region (first-seen
	// order preserved). Members of kept net k are
	// members[memberIdx[k]:memberIdx[k+1]], in ascending cell order.
	b.keep = grow(b.keep, numNets)
	b.memberIdx = grow(b.memberIdx, numNets+1)
	kept := 0
	for p, c := range cnt {
		if c >= 2 {
			b.keep[p] = int32(kept)
			kept++
			b.memberIdx[kept] = b.memberIdx[kept-1] + c
		} else {
			b.keep[p] = -1
		}
	}
	b.memberIdx = b.memberIdx[:kept+1]
	keptInc := int(b.memberIdx[kept])
	if cap(b.members) < keptInc {
		b.members = make([]int32, keptInc)
	}
	b.members = b.members[:keptInc]
	cur := grow(b.cursor, kept) // aliases cnt, which is dead past here
	b.cursor = cur
	copy(cur, b.memberIdx[:kept])
	// One more walk fills the members and the per-cell local net CSR,
	// each cell's list sorted into ascending kept-net order (the order the
	// FM tie-breaking saw historically; a cell has a handful of nets).
	b.localIdx = grow(b.localIdx, n+1)
	local := b.localBuf[:0]
	for i, c := range cells {
		start := len(local)
		for _, net := range b.cellNets(c) {
			k := b.keep[b.netPos[net]]
			if k < 0 {
				continue
			}
			b.members[cur[k]] = int32(i)
			cur[k]++
			j := len(local)
			local = append(local, k)
			for ; j > start && local[j-1] > k; j-- {
				local[j] = local[j-1]
			}
			local[j] = k
		}
		b.localIdx[i+1] = int32(len(local))
	}
	b.localBuf = local

	tol := totalArea*0.02 + 12*b.n.Lib.SiteWidth
	for pass := 0; pass < fmPasses; pass++ {
		b.stats.passes++
		if !b.fmPass(cells, side, kept, &areaA, targetA, tol) {
			break
		}
	}
	return side
}

// netMembers and cellLocals read the per-node incidence CSRs.
func (b *bisector) netMembers(k int32) []int32 {
	return b.members[b.memberIdx[k]:b.memberIdx[k+1]]
}
func (b *bisector) cellLocals(i int32) []int32 {
	return b.localBuf[b.localIdx[i]:b.localIdx[i+1]]
}

// fmPass runs one full Fiduccia–Mattheyses pass: every cell is moved once
// in best-gain order under the balance constraint, then the pass is rolled
// back to its best prefix. Returns true if the pass improved the cut.
func (b *bisector) fmPass(cells []netlist.CellID, side []uint8, numNets int,
	areaA *float64, targetA, tol float64) bool {

	n := len(cells)
	if cap(b.cnt) < numNets {
		b.cnt = make([][2]int32, numNets)
	}
	cnt := b.cnt[:numNets]
	for k := range cnt {
		cnt[k] = [2]int32{}
	}
	for k := 0; k < numNets; k++ {
		for _, m := range b.netMembers(int32(k)) {
			cnt[k][side[m]]++
		}
	}
	b.gain = grow(b.gain, n)
	gain := b.gain
	for i := range gain {
		s := side[i]
		for _, ni := range b.cellLocals(int32(i)) {
			if cnt[ni][s] == 1 {
				gain[i]++
			}
			if cnt[ni][1-s] == 0 {
				gain[i]--
			}
		}
	}
	// Gain buckets with lazy deletion: a popped entry is valid only if it
	// matches the cell's current gain and the cell is unlocked. Every
	// bucket above top is empty.
	for gi := range b.buckets {
		b.buckets[gi] = b.buckets[gi][:0]
	}
	top := -1
	clamp := func(g int32) int32 {
		if g > maxGain {
			return maxGain
		}
		if g < -maxGain {
			return -maxGain
		}
		return g
	}
	push := func(i int32) {
		gi := int(clamp(gain[i]) + maxGain)
		b.buckets[gi] = append(b.buckets[gi], i)
		if gi > top {
			top = gi
		}
	}
	if cap(b.locked) < n {
		b.locked = make([]bool, n)
	}
	locked := b.locked[:n]
	for i := range locked {
		locked[i] = false
	}
	for i := 0; i < n; i++ {
		push(int32(i))
	}

	moves := b.moves[:0]
	cumDelta, bestDelta, bestK := int32(0), int32(0), 0
	curAreaA := *areaA

	// popBest returns the newest valid entry of the highest non-empty
	// bucket that keeps the balance. Everything it pops on the way is
	// dropped, so when it returns from bucket gi all buckets above gi are
	// empty and top can come down to gi.
	popBest := func() int32 {
		for gi := top; gi >= 0; gi-- {
			bl := b.buckets[gi]
			for len(bl) > 0 {
				i := bl[len(bl)-1]
				bl = bl[:len(bl)-1]
				if locked[i] || clamp(gain[i])+maxGain != int32(gi) {
					continue // stale entry
				}
				// Balance check.
				w := b.width[i]
				na := curAreaA
				if side[i] == 0 {
					na -= w
				} else {
					na += w
				}
				if na < targetA-tol || na > targetA+tol {
					continue // would unbalance; try next (leave popped)
				}
				b.buckets[gi] = bl
				top = gi
				return i
			}
			b.buckets[gi] = bl
		}
		top = -1
		return -1
	}

	for moved := 0; moved < n; moved++ {
		i := popBest()
		if i < 0 {
			break
		}
		locked[i] = true
		s := side[i]
		w := b.width[i]
		if s == 0 {
			curAreaA -= w
		} else {
			curAreaA += w
		}
		cumDelta -= gain[i]
		moves = append(moves, move{cell: i, delta: gain[i]})
		// Apply move: update neighbour gains by the classical FM delta,
		// then the counts. With F and T the net's counts on the from and to
		// sides before the move, an unlocked member on the from side gains
		// [F==2]+[T==0] and one on the to side loses [T==1]+[F==1], so only
		// a critical net (F <= 2 or T <= 1) is walked.
		for _, ni := range b.cellLocals(i) {
			c := &cnt[ni]
			from, to := c[s], c[1-s]
			if from <= 2 || to <= 1 {
				dFrom := one(from == 2) + one(to == 0)
				dTo := -one(to == 1) - one(from == 1)
				for _, m := range b.netMembers(ni) {
					if !locked[m] {
						if side[m] == s {
							gain[m] += dFrom
						} else {
							gain[m] += dTo
						}
					}
				}
			}
			c[s]--
			c[1-s]++
		}
		side[i] = 1 - s
		// Re-push every unlocked neighbour, changed gain or not: a bucket
		// is a stack, so the push is what brings the cell to its top.
		for _, ni := range b.cellLocals(i) {
			for _, m := range b.netMembers(ni) {
				if !locked[m] {
					push(m)
				}
			}
		}
		if cumDelta < bestDelta {
			bestDelta = cumDelta
			bestK = len(moves)
		}
	}
	b.stats.movesTried += int64(len(moves))
	b.stats.movesKept += int64(bestK)
	// Observed as a positive magnitude: bestDelta <= 0 by construction
	// (the empty prefix scores 0), so -bestDelta is the pass's cut gain.
	b.hCutDelta.Observe(int64(-bestDelta))
	// Roll back to the best prefix.
	for k := len(moves) - 1; k >= bestK; k-- {
		i := moves[k].cell
		s := side[i]
		w := b.width[i]
		if s == 0 {
			curAreaA -= w
		} else {
			curAreaA += w
		}
		side[i] = 1 - s
	}
	b.moves = moves[:0]
	*areaA = curAreaA
	return bestDelta < 0
}

// one is 1 for true and 0 for false.
func one(ok bool) int32 {
	if ok {
		return 1
	}
	return 0
}
