// Package atpg implements combinational automatic test pattern generation
// for full-scan circuits: PODEM with SCOAP-guided backtracing, 64-way
// parallel-pattern fault simulation by fan-out-free regions, dynamic
// fault dropping, and reverse-order static compaction. It produces the
// compact stuck-at pattern sets whose size the paper's Table 1 tracks
// before and after test point insertion.
package atpg

import (
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// View is the capture-mode combinational model of a full-scan netlist:
// primary inputs and flip-flop outputs are assignable sources, primary
// outputs and flip-flop data inputs are observed sinks, and test-mode
// control nets are frozen to their capture values.
type View struct {
	N *netlist.Netlist

	// Sources lists assignable nets (pattern bit i drives Sources[i]).
	Sources []netlist.NetID
	// SourceOf maps a net to its source index, or -1.
	SourceOf []int32

	// IsSink marks observed nets (POs and flip-flop d inputs).
	IsSink []bool
	// Sinks lists them.
	Sinks []netlist.NetID

	// ConstVal freezes nets: -1 free, 0/1 forced (constants and
	// capture-mode constraints such as scan-enable = 0).
	ConstVal []int8

	// Order is the levelized combinational cell order; Level the depth
	// per cell (−1 for non-combinational).
	Order []netlist.CellID
	Level []int32

	// CSR is the flat netlist adjacency, captured at view construction.
	CSR *netlist.CSR

	// CombLoadIdx/CombLoadCells are a per-net CSR of the combinational
	// load cells only — the set event propagation actually enqueues — so
	// the hot enqueueLoads loops scan a dense int32 array instead of
	// filtering the full Load list (POs, flip-flops) on every event.
	// CombLoadLvl carries each load cell's level alongside, sparing the
	// enqueue loop one random access into Level per load.
	CombLoadIdx   []int32
	CombLoadCells []netlist.CellID
	CombLoadLvl   []int32

	// CellLUT indexes each combinational cell's three-valued truth table
	// in evalTabs (-1 = evaluate generically via logicsim.Eval3). A table
	// is the cell function enumerated over all 2-bit-packed input
	// combinations, so the event loop evaluates a gate with one load
	// instead of a kind switch and a pin loop.
	CellLUT []int16

	// CellKind and CellOut are flat per-CellID copies of the instance
	// kind and output net, so hot simulation loops touch two dense
	// arrays instead of the Instance structs.
	CellKind []stdcell.Kind
	CellOut  []netlist.NetID

	// MaxLevel is the deepest cell level.
	MaxLevel int

	// regionCell and regionPin link each net to its successor inside a
	// fan-out-free region: a net whose only load is a live combinational
	// cell records that cell and input pin. Every other net is a region
	// output (a stem), with regionCell NoCell; that includes every sink,
	// whose loads hold its PO tap or flip-flop pin.
	regionCell []netlist.CellID
	regionPin  []int32
}

// fanout returns the loads of a net from the flat adjacency.
func (v *View) fanout(net netlist.NetID) []netlist.Load { return v.CSR.Fanout(net) }

// combLoads returns the combinational load cells of a net.
func (v *View) combLoads(net netlist.NetID) []netlist.CellID {
	return v.CombLoadCells[v.CombLoadIdx[net]:v.CombLoadIdx[net+1]]
}

// fanin returns the input nets of a cell, aligned with Instance.Ins.
func (v *View) fanin(ci netlist.CellID) []netlist.NetID { return v.CSR.Fanin(ci) }

// NewView builds the capture-mode view. constraints freezes nets to
// constants for the whole ATPG run.
func NewView(n *netlist.Netlist, constraints map[netlist.NetID]int8) (*View, error) {
	lv, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	v := &View{
		N:        n,
		SourceOf: make([]int32, len(n.Nets)),
		IsSink:   make([]bool, len(n.Nets)),
		ConstVal: make([]int8, len(n.Nets)),
		Order:    lv.Order,
		Level:    lv.CellLevel,
		CSR:      n.CSR(),
		CellKind: make([]stdcell.Kind, len(n.Cells)),
		CellOut:  make([]netlist.NetID, len(n.Cells)),
		MaxLevel: lv.MaxLevel,
	}
	for i := range n.Cells {
		v.CellKind[i] = n.Cells[i].Cell.Kind
		v.CellOut[i] = n.Cells[i].Out
	}
	v.CombLoadIdx = make([]int32, len(n.Nets)+1)
	for id := range n.Nets {
		for _, ld := range v.CSR.Fanout(netlist.NetID(id)) {
			if ld.Cell != netlist.NoCell && lv.CellLevel[ld.Cell] >= 0 {
				v.CombLoadIdx[id+1]++
			}
		}
	}
	for i := 1; i <= len(n.Nets); i++ {
		v.CombLoadIdx[i] += v.CombLoadIdx[i-1]
	}
	v.CombLoadCells = make([]netlist.CellID, v.CombLoadIdx[len(n.Nets)])
	v.CombLoadLvl = make([]int32, len(v.CombLoadCells))
	cursor := append([]int32(nil), v.CombLoadIdx[:len(n.Nets)]...)
	for id := range n.Nets {
		for _, ld := range v.CSR.Fanout(netlist.NetID(id)) {
			if ld.Cell != netlist.NoCell && lv.CellLevel[ld.Cell] >= 0 {
				v.CombLoadCells[cursor[id]] = ld.Cell
				v.CombLoadLvl[cursor[id]] = lv.CellLevel[ld.Cell]
				cursor[id]++
			}
		}
	}
	v.CellLUT = make([]int16, len(n.Cells))
	for i := range n.Cells {
		v.CellLUT[i] = -1
		if v.Comb(netlist.CellID(i)) {
			v.CellLUT[i] = lutFor(v.CellKind[i], len(v.fanin(netlist.CellID(i))))
		}
	}
	for i := range v.SourceOf {
		v.SourceOf[i] = -1
		v.ConstVal[i] = -1
	}
	for i := range n.Nets {
		if c := n.Nets[i].Const; c >= 0 {
			v.ConstVal[i] = c
		}
	}
	for net, val := range constraints {
		v.ConstVal[net] = val
	}
	addSource := func(net netlist.NetID) {
		if v.ConstVal[net] >= 0 || v.SourceOf[net] >= 0 {
			return
		}
		v.SourceOf[net] = int32(len(v.Sources))
		v.Sources = append(v.Sources, net)
	}
	for _, pi := range n.PIs {
		if !pi.Clock {
			addSource(pi.Net)
		}
	}
	for _, ff := range n.FlipFlops() {
		addSource(n.Cells[ff].Out)
	}
	addSink := func(net netlist.NetID) {
		if !v.IsSink[net] {
			v.IsSink[net] = true
			v.Sinks = append(v.Sinks, net)
		}
	}
	for _, po := range n.POs {
		if po.Net != netlist.NoNet {
			addSink(po.Net)
		}
	}
	for _, ff := range n.FlipFlops() {
		c := &n.Cells[ff]
		// In capture mode the flop loads its functional d input (scan
		// flops have se = 0). Only d is observed.
		if di := c.Cell.FindInput("d"); di >= 0 {
			addSink(c.Ins[di])
		}
	}
	v.regionCell = make([]netlist.CellID, len(n.Nets))
	v.regionPin = make([]int32, len(n.Nets))
	for id := range n.Nets {
		v.regionCell[id] = netlist.NoCell
		if lds := v.fanout(netlist.NetID(id)); len(lds) == 1 && lds[0].Cell != netlist.NoCell && v.Comb(lds[0].Cell) {
			v.regionCell[id], v.regionPin[id] = lds[0].Cell, int32(lds[0].Pin)
		}
	}
	return v, nil
}

// Comb reports whether cell id is a live combinational cell.
func (v *View) Comb(id netlist.CellID) bool { return v.Level[id] >= 0 }

// Three-valued logic values used by the PODEM planes: logicsim.Eval3's
// 0, 1 and unknown.
const (
	l0 uint8 = 0
	l1 uint8 = 1
	lX uint8 = 2
)

// evalTabs holds one 256-entry truth table per (kind, fanin-count) pair
// used by the library: entry i is logicsim.Eval3 of the cell over the
// inputs packed two bits per pin into i (first pin in the highest-order
// position). With at most four inputs the packed index never exceeds
// 0xAA, so a fixed 256-byte table covers every arity uniformly and the
// whole registry stays a few kilobytes — permanently L1-resident.
var evalTabs [][256]uint8

// lutKey maps a (kind, nin) pair to its evalTabs index, or -1.
var lutKey = map[int32]int16{}

func init() {
	combos := []struct {
		kind stdcell.Kind
		nins []int
	}{
		{stdcell.KindInv, []int{1}},
		{stdcell.KindBuf, []int{1}},
		{stdcell.KindAnd, []int{2, 3, 4}},
		{stdcell.KindNand, []int{2, 3, 4}},
		{stdcell.KindOr, []int{2, 3, 4}},
		{stdcell.KindNor, []int{2, 3, 4}},
		{stdcell.KindXor, []int{2}},
		{stdcell.KindXnor, []int{2}},
		{stdcell.KindAoi21, []int{3}},
		{stdcell.KindOai21, []int{3}},
		{stdcell.KindMux2, []int{3}},
	}
	var in [4]uint8
	for _, c := range combos {
		for _, nin := range c.nins {
			var tab [256]uint8
			total := 1
			for i := 0; i < nin; i++ {
				total *= 4
			}
			for idx := 0; idx < total; idx++ {
				ok := true
				for p := 0; p < nin; p++ {
					v := uint8(idx>>(2*(nin-1-p))) & 3
					if v > lX {
						ok = false
						break
					}
					in[p] = v
				}
				if !ok {
					continue
				}
				tab[idx] = logicsim.Eval3(c.kind, in[:nin])
			}
			lutKey[int32(c.kind)<<8|int32(nin)] = int16(len(evalTabs))
			evalTabs = append(evalTabs, tab)
		}
	}
}

// lutFor returns the evalTabs index for a cell shape, or -1 when the
// shape has no precomputed table (the event loop then falls back to
// logicsim.Eval3).
func lutFor(kind stdcell.Kind, nin int) int16 {
	if id, ok := lutKey[int32(kind)<<8|int32(nin)]; ok {
		return id
	}
	return -1
}

// The simulator packs both planes of a net into one byte — good value in
// the low nibble, faulty value in the high nibble — so the event loop
// fetches a pin's full state with a single load and classifies it with
// 256-entry lookup tables.
const pX = lX | lX<<4 // both planes X

// pk packs a (good, faulty) pair.
func pk(g, f uint8) uint8 { return g | f<<4 }

var (
	// compT maps a packed byte to the composite five-valued code.
	compT [256]uint8
	// dT marks packed bytes carrying a fault effect (both planes bound
	// and different — the D/D̄ detector of the event loop).
	dT [256]bool
)

func init() {
	for b := 0; b < 256; b++ {
		g, f := uint8(b)&0xf, uint8(b)>>4
		if g > lX || f > lX {
			continue
		}
		switch {
		case g == lX || f == lX:
			compT[b] = cX
		case g == f:
			compT[b] = g
		case g == l1:
			compT[b] = cD
		default:
			compT[b] = cDB
		}
		dT[b] = g != f && g != lX && f != lX
	}
}
