package place

// Differential tests of the bisector: placing with it must give the very
// placement, and the very FM statistics, that refBisector gives. That type
// is the bisector as it was before incremental gain maintenance, the
// bounded bucket scan and the one-walk node setup, kept here verbatim
// (only renamed): every gain recomputed from the net counts after each
// move, every bucket scan started at the top bucket, five walks over the
// incidences per node.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/scan"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/tpi"
)

type refBisector struct {
	n      *netlist.Netlist
	passes int

	cellNetIdx []int32
	cellNetBuf []int32
	rowH       float64

	side    []uint8
	spill   []netlist.CellID
	netEp   int32
	netSeen []int32
	netPos  []int32
	keep    []int32

	memberIdx []int32
	members   []int32
	localIdx  []int32
	localBuf  []int32
	cursor    []int32

	cnt     [][2]int32
	gain    []int32
	locked  []bool
	buckets [2*maxGain + 1][]int32
	moves   []refMove

	stats struct {
		cuts, passes, movesKept, movesTried int64
	}
	hCutDelta *telemetry.Hist
}

type refMove struct {
	cell  int32
	delta int32
}

func refGrow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func newRefBisector(n *netlist.Netlist, passes int) *refBisector {
	b := &refBisector{n: n, passes: passes, rowH: n.Lib.RowHeight}
	csr := n.CSR()
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
	return b
}

func (b *refBisector) cellNets(c netlist.CellID) []int32 {
	return b.cellNetBuf[b.cellNetIdx[c]:b.cellNetIdx[c+1]]
}

func (b *refBisector) run(ctx context.Context, cells []netlist.CellID, reg region, emit func(netlist.CellID, region)) error {
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

func (b *refBisector) partition(cells []netlist.CellID, fracA float64) []uint8 {
	n := len(cells)
	if cap(b.side) < n {
		b.side = make([]uint8, n)
	}
	side := b.side[:n]
	totalArea := 0.0
	for _, c := range cells {
		totalArea += b.n.Cells[c].Cell.Width
	}
	targetA := totalArea * fracA
	areaA := 0.0
	for i, c := range cells {
		if areaA < targetA {
			side[i] = 0
			areaA += b.n.Cells[c].Cell.Width
		} else {
			side[i] = 1
		}
	}

	b.netEp++
	ep := b.netEp
	numNets := 0
	incidences := 0
	for _, c := range cells {
		nets := b.cellNets(c)
		incidences += len(nets)
		for _, net := range nets {
			if b.netSeen[net] != ep {
				b.netSeen[net] = ep
				b.netPos[net] = int32(numNets)
				numNets++
			}
		}
	}
	b.cursor = refGrow(b.cursor, numNets)
	cnt := b.cursor
	for _, c := range cells {
		for _, net := range b.cellNets(c) {
			cnt[b.netPos[net]]++
		}
	}
	b.keep = refGrow(b.keep, numNets)
	kept := 0
	keptInc := 0
	for p := 0; p < numNets; p++ {
		if cnt[p] >= 2 {
			b.keep[p] = int32(kept)
			kept++
			keptInc += int(cnt[p])
		} else {
			b.keep[p] = -1
		}
	}
	b.memberIdx = refGrow(b.memberIdx, kept+1)
	for p := 0; p < numNets; p++ {
		if k := b.keep[p]; k >= 0 {
			b.memberIdx[k+1] = cnt[p]
		}
	}
	for k := 1; k <= kept; k++ {
		b.memberIdx[k] += b.memberIdx[k-1]
	}
	if cap(b.members) < keptInc {
		b.members = make([]int32, keptInc)
	}
	b.members = b.members[:keptInc]
	b.cursor = refGrow(b.cursor, kept)
	cur := b.cursor
	copy(cur, b.memberIdx[:kept])
	for i, c := range cells {
		for _, net := range b.cellNets(c) {
			if k := b.keep[b.netPos[net]]; k >= 0 {
				b.members[cur[k]] = int32(i)
				cur[k]++
			}
		}
	}
	b.localIdx = refGrow(b.localIdx, n+1)
	for k := 0; k < kept; k++ {
		for _, m := range b.members[b.memberIdx[k]:b.memberIdx[k+1]] {
			b.localIdx[m+1]++
		}
	}
	for i := 1; i <= n; i++ {
		b.localIdx[i] += b.localIdx[i-1]
	}
	if cap(b.localBuf) < keptInc {
		b.localBuf = make([]int32, keptInc)
	}
	b.localBuf = b.localBuf[:keptInc]
	b.cursor = refGrow(b.cursor, n)
	cur = b.cursor
	copy(cur, b.localIdx[:n])
	for k := 0; k < kept; k++ {
		for _, m := range b.members[b.memberIdx[k]:b.memberIdx[k+1]] {
			b.localBuf[cur[m]] = int32(k)
			cur[m]++
		}
	}

	tol := totalArea*0.02 + 12*b.n.Lib.SiteWidth
	for pass := 0; pass < b.passes; pass++ {
		b.stats.passes++
		if !b.fmPass(cells, side, kept, &areaA, targetA, tol) {
			break
		}
	}
	return side
}

func (b *refBisector) netMembers(k int32) []int32 {
	return b.members[b.memberIdx[k]:b.memberIdx[k+1]]
}
func (b *refBisector) cellLocals(i int32) []int32 {
	return b.localBuf[b.localIdx[i]:b.localIdx[i+1]]
}

func (b *refBisector) fmPass(cells []netlist.CellID, side []uint8, numNets int,
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
	b.gain = refGrow(b.gain, n)
	gain := b.gain
	computeGain := func(i int) int32 {
		g := int32(0)
		s := side[i]
		for _, ni := range b.cellLocals(int32(i)) {
			if cnt[ni][s] == 1 {
				g++
			}
			if cnt[ni][1-s] == 0 {
				g--
			}
		}
		return g
	}
	for gi := range b.buckets {
		b.buckets[gi] = b.buckets[gi][:0]
	}
	clamp := func(g int32) int32 {
		if g > maxGain {
			return maxGain
		}
		if g < -maxGain {
			return -maxGain
		}
		return g
	}
	push := func(i int) {
		g := clamp(gain[i])
		b.buckets[g+maxGain] = append(b.buckets[g+maxGain], int32(i))
	}
	if cap(b.locked) < n {
		b.locked = make([]bool, n)
	}
	locked := b.locked[:n]
	for i := range locked {
		locked[i] = false
	}
	for i := 0; i < n; i++ {
		gain[i] = computeGain(i)
		push(i)
	}

	moves := b.moves[:0]
	cumDelta, bestDelta, bestK := int32(0), int32(0), 0
	curAreaA := *areaA

	popBest := func() int32 {
		for gi := len(b.buckets) - 1; gi >= 0; gi-- {
			bl := b.buckets[gi]
			for len(bl) > 0 {
				i := bl[len(bl)-1]
				bl = bl[:len(bl)-1]
				if locked[i] || clamp(gain[i])+maxGain != int32(gi) {
					continue
				}
				w := b.n.Cells[cells[i]].Cell.Width
				na := curAreaA
				if side[i] == 0 {
					na -= w
				} else {
					na += w
				}
				if na < targetA-tol || na > targetA+tol {
					continue
				}
				b.buckets[gi] = bl
				return i
			}
			b.buckets[gi] = bl
		}
		return -1
	}

	for moved := 0; moved < n; moved++ {
		i := popBest()
		if i < 0 {
			break
		}
		locked[i] = true
		s := side[i]
		w := b.n.Cells[cells[i]].Cell.Width
		if s == 0 {
			curAreaA -= w
		} else {
			curAreaA += w
		}
		cumDelta -= gain[i]
		moves = append(moves, refMove{cell: i, delta: gain[i]})
		for _, ni := range b.cellLocals(i) {
			cnt[ni][s]--
			cnt[ni][1-s]++
		}
		side[i] = 1 - s
		for _, ni := range b.cellLocals(i) {
			for _, m := range b.netMembers(ni) {
				if !locked[m] {
					gain[m] = computeGain(int(m))
					push(int(m))
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
	b.hCutDelta.Observe(int64(-bestDelta))
	for k := len(moves) - 1; k >= bestK; k-- {
		i := moves[k].cell
		s := side[i]
		w := b.n.Cells[cells[i]].Cell.Width
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

// refPlace is Place with refBisector in global's place, flushing the same
// telemetry onto opt.Telemetry.
func refPlace(t *testing.T, n *netlist.Netlist, opt Options) *Placement {
	t.Helper()
	p := &Placement{N: n, Opt: opt}
	p.floorplan()
	p.X = make([]float64, len(n.Cells))
	p.Row = make([]int32, len(n.Cells))
	for i := range p.Row {
		p.Row[i] = -1
	}
	var cells []netlist.CellID
	for ci := range n.Cells {
		if !n.Cells[ci].Dead {
			cells = append(cells, netlist.CellID(ci))
		}
	}
	b := newRefBisector(n, fmPasses)
	sp := opt.Telemetry
	b.hCutDelta = sp.Hist("place.fm_cut_delta")
	if err := b.run(context.Background(), cells, region{r0: 0, r1: p.NumRows, x0: 0, x1: p.RowLen}, func(id netlist.CellID, reg region) {
		p.Row[id] = int32(reg.r0)
		p.X[id] = reg.x0
	}); err != nil {
		t.Fatal(err)
	}
	sp.Add("place.cells", int64(len(cells)))
	sp.Add("place.cuts", b.stats.cuts)
	sp.Add("place.fm_passes", b.stats.passes)
	sp.Add("place.fm_moves", b.stats.movesKept)
	sp.Add("place.fm_moves_tried", b.stats.movesTried)
	if err := p.legalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

// tracedPlace runs place on a fresh span and returns the placement with
// the span's span_end event, which carries what global flushed.
func tracedPlace(t *testing.T, place func(*telemetry.Span) *Placement) (*Placement, telemetry.Event) {
	t.Helper()
	var end telemetry.Event
	sp := telemetry.New(telemetry.FuncSink(func(e telemetry.Event) {
		if e.Type == telemetry.EventSpanEnd {
			end = e
		}
	})).StartSpan("place", 0)
	p := place(sp)
	sp.End()
	return p, end
}

// samePlacement places n twice, with Place and with refPlace, and requires
// identical locations, core size and FM statistics.
func samePlacement(t *testing.T, n *netlist.Netlist, util float64) {
	t.Helper()
	got, gotEv := tracedPlace(t, func(sp *telemetry.Span) *Placement {
		p, err := PlaceContext(context.Background(), n.Clone(), Options{TargetUtilization: util, Telemetry: sp})
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	want, wantEv := tracedPlace(t, func(sp *telemetry.Span) *Placement {
		return refPlace(t, n.Clone(), Options{TargetUtilization: util, Telemetry: sp})
	})
	if !reflect.DeepEqual(got.Row, want.Row) {
		t.Errorf("Row differs from the reference bisector's (first at cell %d)", firstDiff(got.Row, want.Row))
	}
	if !reflect.DeepEqual(got.X, want.X) {
		t.Errorf("X differs from the reference bisector's (first at cell %d)", firstDiff(got.X, want.X))
	}
	if got.NumRows != want.NumRows || got.RowLen != want.RowLen {
		t.Errorf("core %d rows x %g, reference %d x %g", got.NumRows, got.RowLen, want.NumRows, want.RowLen)
	}
	for _, name := range []string{"place.cells", "place.cuts", "place.fm_passes", "place.fm_moves", "place.fm_moves_tried"} {
		if g, w := gotEv.Counters[name], wantEv.Counters[name]; g != w {
			t.Errorf("%s = %d, reference %d", name, g, w)
		}
	}
	if g, w := gotEv.Hists["place.fm_cut_delta"], wantEv.Hists["place.fm_cut_delta"]; !reflect.DeepEqual(g, w) {
		t.Errorf("place.fm_cut_delta = %+v, reference %+v", g, w)
	}
	if gotEv.Counters["place.cells"] > 16*leafCells && gotEv.Counters["place.fm_moves_tried"] == 0 {
		t.Error("no FM move was tried: the comparison exercised nothing")
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// profiles are the three paper circuits with the utilization and scan
// options flow.ExperimentConfig gives them.
var profiles = []struct {
	name string
	spec circuitgen.Spec
	util float64
	scan scan.Options
}{
	{"s38417c", circuitgen.S38417Class(), 0.97, scan.Options{MaxChainLength: 100}},
	{"wctrl1", circuitgen.WirelessCtrlClass(), 0.97, scan.Options{MaxChainLength: 100}},
	{"p26909c", circuitgen.DSPCoreClass(), 0.50, scan.Options{MaxChains: 32}},
}

func TestBisectorMatchesReference(t *testing.T) {
	lib := stdcell.Default()
	benches, err := filepath.Glob("../circuitgen/testdata/*.bench")
	if err != nil || len(benches) == 0 {
		t.Fatalf("no .bench test data (%v)", err)
	}
	for _, path := range benches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			n, err := circuitgen.ReadBench(f, filepath.Base(path), lib, 10000)
			if err != nil {
				t.Fatal(err)
			}
			samePlacement(t, n, 0.97)
		})
	}
	for _, pr := range profiles {
		for _, scale := range []float64{0.03, 0.1} {
			pr, scale := pr, scale
			t.Run(fmt.Sprintf("%s_x%g", pr.name, scale), func(t *testing.T) {
				t.Parallel()
				n, err := circuitgen.Generate(pr.spec.Scale(scale), lib)
				if err != nil {
					t.Fatal(err)
				}
				samePlacement(t, n, pr.util)

				// The netlist the flow places: test points, then scan chains.
				count := int(0.05*float64(n.NumFlipFlops()) + 0.5)
				tps, err := tpi.Insert(n, tpi.Options{Count: count})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := scan.Insert(n, tps, pr.scan); err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("tpi%d+scan", count), func(t *testing.T) {
					samePlacement(t, n, pr.util)
				})
			})
		}
	}
}
