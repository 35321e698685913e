package atpg

import (
	"tpilayout/internal/fault"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
)

// sim5 is an event-driven two-plane (good/faulty) three-valued simulator
// used by PODEM. The composite of the two planes gives the classic
// five-valued {0, 1, X, D, D̄} algebra. Both planes of a net live packed
// in one byte of P (good low nibble, faulty high nibble), so a gate
// evaluation is a handful of shifts plus one or two lookups in the
// precomputed per-(kind,arity) truth tables of evalTabs.
type sim5 struct {
	v *View
	P []uint8 // per-net packed planes: good | faulty<<4

	// Injected fault.
	fNet  netlist.NetID
	fCell netlist.CellID // load cell for branch faults, NoCell for stem
	fPin  int
	fSA   uint8
	// directObs is set for branch faults into a flip-flop's d pin: the
	// fault is observed directly by the capture, with no combinational
	// propagation needed.
	directObs bool

	// Level-bucketed event queue; nq counts pending events so run()
	// stops as soon as the queue drains instead of scanning every level,
	// and minLvl lets it start at the shallowest pending bucket instead
	// of walking empty headers from level 1.
	buckets [][]netlist.CellID
	queued  []bool
	nq      int
	minLvl  int

	// D-frontier candidates: cells evaluated with a D input and an X
	// output since the planes were last reset. Forward simulation only
	// binds values, so an entry that has left the frontier stays out of
	// it until undoTo cuts the list back; onFrontier filters.
	cand   []netlist.CellID
	inCand []bool

	// Baseline packed planes with all sources X (constants propagated).
	baseline []uint8

	// Undo trail: the previous planes of every net assign and run changed,
	// oldest first. Going back to an earlier state is undoTo, never a
	// simulation.
	trail []undo

	// Cone of influence of the installed fault: cells stamped coneEpoch,
	// the highest stamp there is. The event queue skips cells stamped below
	// coneFrom, which is coneEpoch while simulation is restricted to the
	// cone and 0 otherwise; settle brings the skipped cells up to date in
	// one sweep. drv is the combinational driver of each net (NoCell for
	// sources), coneCells the marking worklist.
	cone      []int32
	coneEpoch int32
	coneFrom  int32
	coneCells []netlist.CellID
	drv       []netlist.CellID

	// X-path marks, shared by the queries of one epoch pair: xpEpoch
	// stamps a net with no X-path to a sink, xpEpoch+1 one that has.
	xpVisit []int32
	xpEpoch int32

	// Incremental count of sinks currently carrying a fault effect.
	sinkD   int
	dAtSink []bool
}

// undo is one trail entry: a net and the planes it held before a write.
type undo struct {
	net netlist.NetID
	old uint8
}

// Composite five-valued views of a net.
const (
	c0 uint8 = iota
	c1
	cX
	cD  // good 1, faulty 0
	cDB // good 0, faulty 1
)

func newSim5(v *View) *sim5 {
	s := &sim5{
		v:       v,
		P:       make([]uint8, len(v.N.Nets)),
		buckets: make([][]netlist.CellID, v.MaxLevel+2),
		queued:  make([]bool, len(v.N.Cells)),
		inCand:  make([]bool, len(v.N.Cells)),
		cone:    make([]int32, len(v.N.Cells)),
		drv:     make([]netlist.CellID, len(v.N.Nets)),
		xpVisit: make([]int32, len(v.N.Nets)),
		dAtSink: make([]bool, len(v.N.Nets)),
		fCell:   netlist.NoCell,
	}
	for i := range s.drv {
		s.drv[i] = netlist.NoCell
		if d := v.N.Nets[i].Driver; d != netlist.NoCell && v.Comb(d) {
			s.drv[i] = d
		}
	}
	s.baseline = computeBaseline(v)
	return s
}

// g and f unpack one plane of a net.
func (s *sim5) g(net netlist.NetID) uint8 { return s.P[net] & 0xf }
func (s *sim5) f(net netlist.NetID) uint8 { return s.P[net] >> 4 }

// computeBaseline returns the settled all-X packed planes of a view:
// everything X except frozen nets, then one topological sweep so
// constant-driven logic settles.
func computeBaseline(v *View) []uint8 {
	b := make([]uint8, len(v.N.Nets))
	for i := range b {
		if cv := v.ConstVal[i]; cv >= 0 {
			b[i] = pk(uint8(cv), uint8(cv))
		} else {
			b[i] = pX
		}
	}
	settleGood(v, b, nil, 0)
	return b
}

// settleGood evaluates in topological order the good value of every
// combinational cell not stamped ep in cone (of every one when cone is
// nil) and mirrors it into the faulty plane.
func settleGood(v *View, b []uint8, cone []int32, ep int32) {
	var ins [16]uint8
	for _, ci := range v.Order {
		out := v.CellOut[ci]
		if v.ConstVal[out] >= 0 || cone != nil && cone[ci] == ep {
			continue
		}
		fanin := v.fanin(ci)
		for p, net := range fanin {
			ins[p] = b[net] & 0xf
		}
		g := logicsim.Eval3(v.CellKind[ci], ins[:len(fanin)])
		b[out] = pk(g, g)
	}
}

// setFault installs fault f, resets both planes to the baseline and
// restricts simulation to the fault's cone of influence.
func (s *sim5) setFault(f fault.Fault) {
	s.installFault(f)
	copy(s.P, s.baseline)
	s.resetFrontier()
	s.markCone()
	s.inject()
	s.run()
	s.trail = s.trail[:0]
}

// markCone stamps the cone of influence of the installed fault and turns
// the restriction on: the fan-out cone of the fault site (the only cells a
// fault effect, the D-frontier or an X-path can reach), closed under
// fan-in (every cell that can set a value there), plus the fan-in of the
// site itself (activation). The set is closed under fan-in, so the planes
// inside it are exactly those of a full-circuit simulation, and every net
// objective, backtrace and xpath read lies inside it.
func (s *sim5) markCone() {
	s.coneEpoch++
	cells := s.coneCells[:0]
	add := func(ci netlist.CellID) {
		if ci != netlist.NoCell && s.cone[ci] != s.coneEpoch {
			s.cone[ci] = s.coneEpoch
			cells = append(cells, ci)
		}
	}
	if s.fCell == netlist.NoCell {
		for _, ci := range s.v.combLoads(s.fNet) {
			add(ci)
		}
	} else if s.v.Comb(s.fCell) {
		add(s.fCell)
	}
	for i := 0; i < len(cells); i++ {
		for _, ci := range s.v.combLoads(s.v.CellOut[cells[i]]) {
			add(ci)
		}
	}
	add(s.drv[s.fNet])
	for i := 0; i < len(cells); i++ {
		for _, net := range s.v.fanin(cells[i]) {
			add(s.drv[net])
		}
	}
	s.coneCells = cells
	s.coneFrom = s.coneEpoch
}

// settle lifts the cone restriction and brings the cells the event queue
// skipped under it up to date, so the good plane is that of a full-circuit
// simulation of the current assignments. The faulty plane of those cells
// mirrors the good one: none of them is in the fault's fan-out cone.
func (s *sim5) settle() {
	if s.coneFrom != 0 {
		s.coneFrom = 0
		settleGood(s.v, s.P, s.cone, s.coneEpoch)
	}
}

// undoTo takes the planes, the sink-effect count and the candidate list
// back to the state in which the trail held mark entries and the
// candidate list ncand.
func (s *sim5) undoTo(mark, ncand int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := s.trail[i]
		s.P[e.net] = e.old
		s.updateSink(e.net)
	}
	s.trail = s.trail[:mark]
	for _, ci := range s.cand[ncand:] {
		s.inCand[ci] = false
	}
	s.cand = s.cand[:ncand]
}

// retarget swaps the injected fault while keeping the current source
// assignments (and thus the good plane): the faulty plane is rebuilt from
// the good plane plus the new injection. This is the primitive behind
// dynamic compaction — extending one test cube to additional faults. It
// settles first and simulates the full circuit from then on (the cube's
// assignments reach beyond any one secondary's cone), and it starts a new
// trail: the entries of the frozen cube hold faulty planes of the previous
// fault and are never undone.
func (s *sim5) retarget(f fault.Fault) {
	s.settle()
	s.installFault(f)
	for i, p := range s.P {
		g := p & 0xf
		s.P[i] = g | g<<4
	}
	s.resetFrontier()
	s.inject()
	s.run()
	s.trail = s.trail[:0]
}

// installFault decodes the fault site into the injection fields.
func (s *sim5) installFault(f fault.Fault) {
	s.fNet = f.Net
	s.fSA = uint8(f.SA)
	s.fCell = netlist.NoCell
	s.fPin = -1
	s.directObs = false
	if f.Load != fault.StemLoad {
		ld := s.v.fanout(f.Net)[f.Load]
		s.fCell = ld.Cell
		s.fPin = int(ld.Pin)
		if ld.Cell != netlist.NoCell && !s.v.Comb(ld.Cell) {
			c := &s.v.N.Cells[ld.Cell]
			s.directObs = c.Cell.Kind.IsSequential() && c.Cell.FindInput("d") == int(ld.Pin)
		} else if ld.Cell == netlist.NoCell {
			s.directObs = true // branch straight into a primary output
		}
	}
}

func (s *sim5) resetFrontier() {
	s.cand = s.cand[:0]
	for i := range s.inCand {
		s.inCand[i] = false
	}
	s.sinkD = 0
	for i := range s.dAtSink {
		s.dAtSink[i] = false
	}
}

// inject seeds the faulty plane and the event queue for the current fault.
func (s *sim5) inject() {
	if s.fCell == netlist.NoCell {
		// Stem fault: the faulty plane holds the stuck value.
		s.P[s.fNet] = s.P[s.fNet]&0xf | s.fSA<<4
		s.updateSink(s.fNet)
		s.enqueueLoads(s.fNet)
	} else {
		s.enqueue(s.fCell)
	}
}

func (s *sim5) enqueue(ci netlist.CellID) {
	if !s.v.Comb(ci) || s.queued[ci] {
		return
	}
	s.queued[ci] = true
	s.nq++
	lvl := s.v.Level[ci]
	if int(lvl) < s.minLvl {
		s.minLvl = int(lvl)
	}
	s.buckets[lvl] = append(s.buckets[lvl], ci)
}

func (s *sim5) enqueueLoads(net netlist.NetID) {
	// CombLoadCells is pre-filtered to live combinational cells, with the
	// cell level carried alongside, so the Comb check and the Level lookup
	// in enqueue are already paid for the whole net.
	for p, end := s.v.CombLoadIdx[net], s.v.CombLoadIdx[net+1]; p < end; p++ {
		ci := s.v.CombLoadCells[p]
		if !s.queued[ci] && s.cone[ci] >= s.coneFrom {
			s.queued[ci] = true
			s.nq++
			lvl := s.v.CombLoadLvl[p]
			if int(lvl) < s.minLvl {
				s.minLvl = int(lvl)
			}
			s.buckets[lvl] = append(s.buckets[lvl], ci)
		}
	}
}

// assign sets a source and propagates the change.
func (s *sim5) assign(net netlist.NetID, val uint8) {
	fv := val
	if s.fCell == netlist.NoCell && net == s.fNet {
		fv = s.fSA
	}
	s.trail = append(s.trail, undo{net, s.P[net]})
	s.P[net] = pk(val, fv)
	s.updateSink(net)
	s.enqueueLoads(net)
	s.run()
}

// updateSink maintains the incremental count of sinks carrying a fault
// effect after net's planes changed.
func (s *sim5) updateSink(net netlist.NetID) {
	if !s.v.IsSink[net] {
		return
	}
	v := compT[s.P[net]]
	d := v == cD || v == cDB
	if d != s.dAtSink[net] {
		s.dAtSink[net] = d
		if d {
			s.sinkD++
		} else {
			s.sinkD--
		}
	}
}

// run drains the event queue level by level. Each event gathers the
// packed pin bytes into two table indices (good nibbles and faulty
// nibbles, first pin in the highest position), evaluates the good plane
// with one lookup, and skips the faulty-plane lookup entirely when the
// indices coincide — the common case for events outside the fault cone,
// where the faulty plane just mirrors the good plane. The per-pin
// fault-effect test rides along as a table lookup on the same byte.
func (s *sim5) run() {
	P := s.P
	trail := s.trail
	stem := s.fCell == netlist.NoCell
	start := s.minLvl
	if start < 1 {
		start = 1
	}
	s.minLvl = len(s.buckets)
	for lvl := start; lvl < len(s.buckets) && s.nq > 0; lvl++ {
		bucket := s.buckets[lvl]
		if len(bucket) == 0 {
			continue
		}
		for bi := 0; bi < len(bucket); bi++ {
			ci := bucket[bi]
			s.queued[ci] = false
			s.nq--
			out := s.v.CellOut[ci]
			var np uint8
			hasD := false
			isConst := false
			if cv := s.v.ConstVal[out]; cv >= 0 {
				np = pk(uint8(cv), uint8(cv))
				isConst = true
			} else if ci == s.fCell {
				np, hasD = s.evalFaultCell(ci)
			} else if li := s.v.CellLUT[ci]; li >= 0 {
				tab := &evalTabs[li]
				var gi, fi uint32
				for _, net := range s.v.fanin(ci) {
					pb := P[net]
					gi = gi<<2 | uint32(pb&3)
					fi = fi<<2 | uint32(pb>>4)
					hasD = hasD || dT[pb]
				}
				ng := tab[gi]
				nf := ng
				if gi != fi {
					nf = tab[fi]
				}
				np = pk(ng, nf)
			} else {
				np, hasD = s.evalGeneric(ci)
			}
			if stem && out == s.fNet && !isConst {
				np = np&0xf | s.fSA<<4
			}
			changed := np != P[out]
			if changed {
				trail = append(trail, undo{out, P[out]})
				P[out] = np
				s.updateSink(out)
			}
			// Track D-frontier candidates.
			if (np&0xf == lX || np>>4 == lX) && hasD && !s.inCand[ci] {
				s.inCand[ci] = true
				s.cand = append(s.cand, ci)
			}
			if changed {
				s.enqueueLoads(out)
			}
		}
		s.buckets[lvl] = bucket[:0]
	}
	s.trail = trail
}

// evalFaultCell evaluates the branch-fault load cell, substituting the
// stuck value on the faulted pin. At most one cell per event cascade —
// off the hot path.
func (s *sim5) evalFaultCell(ci netlist.CellID) (uint8, bool) {
	var insG, insF [16]uint8
	hasD := false
	diff := false
	fanin := s.v.fanin(ci)
	for pin, net := range fanin {
		pb := s.P[net]
		g, f := pb&0xf, pb>>4
		if pin == s.fPin {
			f = s.fSA
		}
		insG[pin] = g
		insF[pin] = f
		if g != f {
			diff = true
			if g != lX && f != lX {
				hasD = true
			}
		}
	}
	kind := s.v.CellKind[ci]
	ng := logicsim.Eval3(kind, insG[:len(fanin)])
	nf := ng
	if diff {
		nf = logicsim.Eval3(kind, insF[:len(fanin)])
	}
	return pk(ng, nf), hasD
}

// evalGeneric evaluates a cell with no precomputed truth table (arities
// beyond the library's 4-input gates, if any ever appear).
func (s *sim5) evalGeneric(ci netlist.CellID) (uint8, bool) {
	var insG, insF [16]uint8
	hasD := false
	diff := false
	fanin := s.v.fanin(ci)
	for pin, net := range fanin {
		pb := s.P[net]
		g, f := pb&0xf, pb>>4
		insG[pin] = g
		insF[pin] = f
		if g != f {
			diff = true
			if g != lX && f != lX {
				hasD = true
			}
		}
	}
	kind := s.v.CellKind[ci]
	ng := logicsim.Eval3(kind, insG[:len(fanin)])
	nf := ng
	if diff {
		nf = logicsim.Eval3(kind, insF[:len(fanin)])
	}
	return pk(ng, nf), hasD
}

// comp returns the composite five-valued view of a net.
func (s *sim5) comp(net netlist.NetID) uint8 { return compT[s.P[net]] }

// pinComp is comp() for a specific cell input pin, honoring branch-fault
// substitution.
func (s *sim5) pinComp(ci netlist.CellID, pin int) uint8 {
	net := s.v.fanin(ci)[pin]
	pb := s.P[net]
	if ci == s.fCell && pin == s.fPin {
		pb = pb&0xf | s.fSA<<4
	}
	return compT[pb]
}

// hasDInput reports whether any input pin of ci carries a fault effect.
func (s *sim5) hasDInput(ci netlist.CellID) bool {
	for pin := range s.v.fanin(ci) {
		if v := s.pinComp(ci, pin); v == cD || v == cDB {
			return true
		}
	}
	return false
}

// detected reports whether the fault effect has reached any sink.
func (s *sim5) detected() bool {
	if s.directObs {
		return s.g(s.fNet) == 1-s.fSA
	}
	return s.sinkD > 0
}

// onFrontier reports whether candidate ci is on the D-frontier now: a
// fault effect on an input and an X output.
func (s *sim5) onFrontier(ci netlist.CellID) bool {
	return compT[s.P[s.v.CellOut[ci]]] == cX && s.hasDInput(ci)
}

// newXpathEpoch forgets the X-path marks; call whenever the planes may
// have changed since the last query.
func (s *sim5) newXpathEpoch() { s.xpEpoch += 2 }

// xpath reports whether an X-valued path exists from net to any sink,
// reusing what earlier queries of the epoch have proven about the nets on
// the way.
func (s *sim5) xpath(net netlist.NetID) bool {
	if s.v.IsSink[net] {
		return true
	}
	if m := s.xpVisit[net]; m >= s.xpEpoch {
		return m > s.xpEpoch
	}
	s.xpVisit[net] = s.xpEpoch
	// Only combinational loads can extend the path: a flip-flop d pin is
	// itself a sink net, handled by IsSink above.
	for _, ci := range s.v.combLoads(net) {
		out := s.v.CellOut[ci]
		if compT[s.P[out]] == cX && s.xpath(out) {
			s.xpVisit[net] = s.xpEpoch + 1
			return true
		}
	}
	return false
}
