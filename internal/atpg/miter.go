package atpg

import (
	"tpilayout/internal/fault"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// miter encodes "some pattern detects fault f" as CNF (Larrabee's
// formulation) and turns a model back into a test cube:
//
//   - good-circuit clauses over the fan-in closure of the fault's fan-out
//     cone (the cells markCone stamps);
//   - a faulty copy only of the fan-out-cone nets, with the stuck value
//     injected at the stem or at the branch pin;
//   - View.ConstVal nets and the activation value as unit clauses;
//   - D-chains: d_n → g_n ≠ f_n; d_n → the OR of d over n's fan-out-cone
//     loads unless n is a sink; d forced at the site (the stem, or the
//     output of the branch's cell); the OR of d over the observed sinks.
//
// The D-chains are redundant for correctness but they are what lets the
// solver find a sensitised path instead of searching the whole miter.
// The pre-screen (screen) builds a relaxation of the same encoding: the
// cone stops prescreenDepth gates past the site and the good circuit
// prescreenFanin gates behind the cone.
// Branch faults into a flip-flop d pin or a primary output (sim5.directObs)
// need only their activation justified.
type miter struct {
	v   *View
	sat satSolver

	// Per-net variables, valid where stamp == epoch. fv and dv are -1 for
	// nets outside the fan-out cone.
	stamp  []int32
	epoch  int32
	gv     []int32
	fv, dv []int32
	dnets  []netlist.NetID // the fan-out cone's nets, in discovery order
	sinks  []netlist.NetID // the observed ones among them
	work   []netlist.NetID
	cells  []netlist.CellID // cells with good-circuit clauses
	cellEp []int32
	tru    lit // the constant-true literal

	// The installed fault, decoded as sim5.installFault does.
	fNet      netlist.NetID
	fSA       uint8
	fCell     netlist.CellID
	fPin      int
	directObs bool

	// Cube extraction: per-net marks of the planes already justified.
	jg, jf []int32
	jwork  []jreq
	ins    []lit // clause and fan-in scratch
	cl     []lit
}

// jreq asks for the value of net in the good (faulty == false) or faulty
// plane to be implied by the cube.
type jreq struct {
	net    netlist.NetID
	faulty bool
}

func newMiter(v *View) *miter {
	nn := len(v.N.Nets)
	return &miter{
		v:      v,
		stamp:  make([]int32, nn),
		gv:     make([]int32, nn),
		fv:     make([]int32, nn),
		dv:     make([]int32, nn),
		cellEp: make([]int32, len(v.N.Cells)),
		jg:     make([]int32, nn),
		jf:     make([]int32, nn),
	}
}

// unbounded, as build's depth or fanin, encodes the whole cone or the
// whole fan-in closure.
const unbounded = -1

// solve builds the miter of f and runs the solver on it under the budget.
func (m *miter) solve(f fault.Fault, budget int) satResult {
	m.build(f, unbounded, unbounded)
	return m.sat.solve(budget)
}

// screen builds the pre-screen's relaxation of f's miter and reports
// whether the solver refutes it within the budget, which proves f
// untestable.
func (m *miter) screen(f fault.Fault, budget int) bool {
	m.build(f, prescreenDepth, prescreenFanin)
	return m.sat.solve(budget) == satUnsat
}

// build encodes the miter of f into the solver. A depth >= 0 stops the
// fan-out cone that many gates past the fault site and observes the nets
// there; a fanin >= 1 leaves the nets more than that many gates behind
// the cone free (closeGood; at 0 the inputs of the cone's gates would
// have no good variables). Either bound only drops constraints, so every
// test of f satisfies the bounded miter too, and its UNSAT still proves f
// untestable: any sensitised path leaves the bounded cone through an
// observed net, since a net outside it reads no cone net but those at
// the bound.
func (m *miter) build(f fault.Fault, depth, fanin int) {
	v, s := m.v, &m.sat
	s.reset()
	m.epoch++
	m.dnets, m.cells, m.work = m.dnets[:0], m.cells[:0], m.work[:0]
	m.tru = posLit(s.newVar())
	s.addClause(m.tru)

	m.fNet, m.fSA, m.fCell, m.fPin, m.directObs = f.Net, uint8(f.SA), netlist.NoCell, -1, false
	site := f.Net
	if f.Load != fault.StemLoad {
		ld := v.fanout(f.Net)[f.Load]
		m.fCell, m.fPin = ld.Cell, int(ld.Pin)
		switch {
		case ld.Cell == netlist.NoCell:
			m.directObs = true // branch straight into a primary output
		case !v.Comb(ld.Cell):
			c := &v.N.Cells[ld.Cell]
			m.directObs = c.Cell.Kind.IsSequential() && c.Cell.FindInput("d") == int(ld.Pin)
			site = netlist.NoNet // any other flip-flop pin: never observed
		case v.ConstVal[v.CellOut[ld.Cell]] >= 0:
			site = netlist.NoNet // the cell's output is frozen: the effect stops
		default:
			site = v.CellOut[ld.Cell]
		}
	}
	if m.directObs {
		m.need(f.Net)
		m.closeGood(fanin)
		s.addClause(m.g(f.Net, 1-m.fSA))
		return
	}
	if site == netlist.NoNet {
		m.need(f.Net)
		m.closeGood(fanin)
		s.addClause() // unobservable: the empty clause
		return
	}

	// The fan-out cone: nets a fault effect can reach, each with a faulty
	// and a D variable. A cell with a frozen output stops the effect. The
	// walk is breadth first, so dnets[edge:] are the nets at the depth
	// bound, left unexpanded.
	m.addD(site)
	edge := 0
	for next, dist := 1, 0; edge < len(m.dnets); edge++ {
		if edge == next {
			next, dist = len(m.dnets), dist+1
		}
		if dist == depth {
			break
		}
		for _, ci := range v.combLoads(m.dnets[edge]) {
			if out := v.CellOut[ci]; v.ConstVal[out] < 0 && !m.isD(out) {
				m.addD(out)
			}
		}
	}
	// Good values: the fault site, the cone and everything they read.
	m.need(f.Net)
	for _, n := range m.dnets {
		m.need(n)
	}
	m.closeGood(fanin)

	// Faulty copy of the cone.
	for _, n := range m.dnets {
		if n == f.Net && m.fCell == netlist.NoCell {
			continue // the stem holds the stuck value
		}
		ci := v.N.Nets[n].Driver
		ins := m.ins[:0]
		for pin, in := range v.fanin(ci) {
			if ci == m.fCell && pin == m.fPin {
				ins = append(ins, m.konst(m.fSA))
			} else {
				ins = append(ins, m.fl(in))
			}
		}
		m.ins = ins
		m.gate(v.CellKind[ci], posLit(m.fv[n]), ins)
	}

	// D-chains.
	sinks := m.sinks[:0]
	for i, n := range m.dnets {
		d := posLit(m.dv[n])
		g, fl := m.g(n, 1), m.fl(n)
		s.addClause(d.neg(), g, fl)
		s.addClause(d.neg(), g.neg(), fl.neg())
		if v.IsSink[n] || i >= edge {
			sinks = append(sinks, n)
			continue
		}
		next := append(m.ins[:0], d.neg())
		for _, ci := range v.combLoads(n) {
			if out := v.CellOut[ci]; m.isD(out) {
				next = append(next, posLit(m.dv[out]))
			}
		}
		m.ins = next
		s.addClause(next...)
	}
	s.addClause(posLit(m.dv[site]))
	s.addClause(m.g(f.Net, 1-m.fSA))
	obs := m.ins[:0]
	for _, n := range sinks {
		obs = append(obs, posLit(m.dv[n]))
	}
	m.ins, m.sinks = obs, sinks
	s.addClause(obs...)
}

// addD puts net n into the fan-out cone.
func (m *miter) addD(n netlist.NetID) {
	m.need(n)
	m.fv[n] = m.sat.newVar()
	m.dv[n] = m.sat.newVar()
	m.dnets = append(m.dnets, n)
}

func (m *miter) isD(n netlist.NetID) bool { return m.stamp[n] == m.epoch && m.dv[n] >= 0 }

// need gives net n a good variable, queueing it for closeGood.
func (m *miter) need(n netlist.NetID) {
	if m.stamp[n] == m.epoch {
		return
	}
	m.stamp[n] = m.epoch
	m.gv[n] = m.sat.newVar()
	m.fv[n], m.dv[n] = -1, -1
	m.work = append(m.work, n)
}

// closeGood encodes the good circuit over the fan-in closure of the queued
// nets: frozen nets as units, combinational drivers as gate clauses,
// anything else (sources, undriven nets) left free. The full closure
// (fanin unbounded) is walked depth first. A bounded one is walked breadth
// first, so each net's depth is its distance behind the queued nets, and
// the nets fanin gates behind them are left free too.
func (m *miter) closeGood(fanin int) {
	v := m.v
	if fanin == unbounded {
		for len(m.work) > 0 {
			n := m.work[len(m.work)-1]
			m.work = m.work[:len(m.work)-1]
			m.expand(n)
		}
	} else {
		for head, next, dist := 0, len(m.work), 0; head < len(m.work); head++ {
			if head == next {
				next, dist = len(m.work), dist+1
			}
			if n := m.work[head]; dist < fanin {
				m.expand(n)
			} else if cv := v.ConstVal[n]; cv >= 0 {
				m.sat.addClause(m.g(n, uint8(cv)))
			}
		}
		m.work = m.work[:0]
	}
	for _, ci := range m.cells {
		ins := m.ins[:0]
		for _, in := range m.v.fanin(ci) {
			ins = append(ins, posLit(m.gv[in]))
		}
		m.ins = ins
		m.gate(v.CellKind[ci], posLit(m.gv[v.CellOut[ci]]), ins)
	}
}

// expand encodes a frozen net as a unit, or queues the fan-in of its
// combinational driver and records the driver for closeGood's clauses.
func (m *miter) expand(n netlist.NetID) {
	v := m.v
	if cv := v.ConstVal[n]; cv >= 0 {
		m.sat.addClause(m.g(n, uint8(cv)))
		return
	}
	ci := v.N.Nets[n].Driver
	if ci == netlist.NoCell || !v.Comb(ci) || m.cellEp[ci] == m.epoch {
		return
	}
	m.cellEp[ci] = m.epoch
	m.cells = append(m.cells, ci)
	for _, in := range v.fanin(ci) {
		m.need(in)
	}
}

// g returns the literal "good value of n is b".
func (m *miter) g(n netlist.NetID, b uint8) lit { return litOf(m.gv[n], b == 1) }

// fl returns the literal of n's faulty value: its own variable inside the
// fan-out cone, the stuck value at a stem site, the good value elsewhere.
func (m *miter) fl(n netlist.NetID) lit {
	switch {
	case n == m.fNet && m.fCell == netlist.NoCell:
		return m.konst(m.fSA)
	case m.isD(n):
		return posLit(m.fv[n])
	}
	return posLit(m.gv[n])
}

func (m *miter) konst(b uint8) lit {
	if b == 1 {
		return m.tru
	}
	return m.tru.neg()
}

// gate adds the Tseitin clauses of y = kind(in).
func (m *miter) gate(kind stdcell.Kind, y lit, in []lit) {
	s := &m.sat
	switch kind {
	case stdcell.KindInv:
		s.addClause(y, in[0])
		s.addClause(y.neg(), in[0].neg())
	case stdcell.KindBuf:
		s.addClause(y.neg(), in[0])
		s.addClause(y, in[0].neg())
	case stdcell.KindAnd, stdcell.KindNand, stdcell.KindOr, stdcell.KindNor:
		// y = AND(in) for And; Nand, Or and Nor by De Morgan.
		neg := kind == stdcell.KindNand || kind == stdcell.KindOr
		inv := kind == stdcell.KindOr || kind == stdcell.KindNor
		if neg {
			y = y.neg()
		}
		all := append(m.cl[:0], y)
		for _, a := range in {
			if inv {
				a = a.neg()
			}
			s.addClause(y.neg(), a)
			all = append(all, a.neg())
		}
		m.cl = all
		s.addClause(all...)
	case stdcell.KindXor, stdcell.KindXnor:
		if kind == stdcell.KindXnor {
			y = y.neg()
		}
		a, b := in[0], in[1]
		s.addClause(y.neg(), a, b)
		s.addClause(y.neg(), a.neg(), b.neg())
		s.addClause(y, a.neg(), b)
		s.addClause(y, a, b.neg())
	case stdcell.KindAoi21: // y = !(a·b + c)
		a, b, c := in[0], in[1], in[2]
		s.addClause(y.neg(), c.neg())
		s.addClause(y.neg(), a.neg(), b.neg())
		s.addClause(y, a, c)
		s.addClause(y, b, c)
	case stdcell.KindOai21: // y = !((a+b)·c)
		a, b, c := in[0], in[1], in[2]
		s.addClause(y.neg(), a.neg(), c.neg())
		s.addClause(y.neg(), b.neg(), c.neg())
		s.addClause(y, a, b)
		s.addClause(y, c)
	case stdcell.KindMux2: // y = s ? b : a
		a, b, sel := in[0], in[1], in[2]
		s.addClause(sel, a.neg(), y)
		s.addClause(sel, a, y.neg())
		s.addClause(sel.neg(), b.neg(), y)
		s.addClause(sel.neg(), b, y.neg())
		s.addClause(a.neg(), b.neg(), y)
		s.addClause(a, b, y.neg())
	default:
		panic("atpg: miter on non-logic cell")
	}
}

// cube turns the model of a satisfied miter into a test cube (one value
// per view source, -1 for don't-care): starting from one observing sink
// (or, for a directly observed branch, from the fault net), each needed
// value is justified backwards, and a gate whose output one input (or, for
// three-input gates, two) already fixes under three-valued evaluation
// keeps only those inputs.
func (m *miter) cube() []int8 {
	v := m.v
	cube := make([]int8, len(v.Sources))
	for i := range cube {
		cube[i] = -1
	}
	m.jwork = m.jwork[:0]
	if m.directObs {
		m.justify(m.fNet, false)
	} else {
		for _, n := range m.dnets {
			if v.IsSink[n] && m.val(n, false) != m.val(n, true) {
				m.justify(n, false)
				m.justify(n, true)
				break
			}
		}
	}
	var in3 [16]uint8
	for len(m.jwork) > 0 {
		r := m.jwork[len(m.jwork)-1]
		m.jwork = m.jwork[:len(m.jwork)-1]
		if si := v.SourceOf[r.net]; si >= 0 {
			cube[si] = int8(m.val(r.net, false))
			continue
		}
		if v.ConstVal[r.net] >= 0 {
			continue
		}
		ci := v.N.Nets[r.net].Driver
		if ci == netlist.NoCell || !v.Comb(ci) {
			continue
		}
		fanin := v.fanin(ci)
		kind := v.CellKind[ci]
		want := m.val(r.net, r.faulty)
		pinVal := func(pin int) uint8 {
			if r.faulty && ci == m.fCell && pin == m.fPin {
				return m.fSA
			}
			return m.val(fanin[pin], r.faulty)
		}
		// fixes reports whether the pins in keep alone imply want.
		fixes := func(keep ...int) bool {
			for p := range fanin {
				in3[p] = lX
			}
			for _, p := range keep {
				in3[p] = pinVal(p)
			}
			return logicsim.Eval3(kind, in3[:len(fanin)]) == want
		}
		push := func(pin int) {
			if !(r.faulty && ci == m.fCell && pin == m.fPin) {
				m.justify(fanin[pin], r.faulty)
			}
		}
		done := false
		for p := range fanin {
			if fixes(p) {
				push(p)
				done = true
				break
			}
		}
		if !done && len(fanin) == 3 {
			for _, pr := range [3][2]int{{0, 1}, {0, 2}, {1, 2}} {
				if fixes(pr[0], pr[1]) {
					push(pr[0])
					push(pr[1])
					done = true
					break
				}
			}
		}
		if !done {
			for p := range fanin {
				push(p)
			}
		}
	}
	return cube
}

// val reads a net's model value in one plane.
func (m *miter) val(n netlist.NetID, faulty bool) uint8 {
	if faulty && m.sat.value(m.fl(n)) || !faulty && m.sat.value(posLit(m.gv[n])) {
		return l1
	}
	return l0
}

// justify queues the value of n in one plane for the cube. Outside the
// fan-out cone the faulty plane is the good one, and the stuck value of a
// stem site needs no justification.
func (m *miter) justify(n netlist.NetID, faulty bool) {
	if faulty && !m.isD(n) {
		faulty = false
	}
	mark := m.jg
	if faulty {
		if n == m.fNet && m.fCell == netlist.NoCell {
			return
		}
		mark = m.jf
	}
	if mark[n] == m.epoch {
		return
	}
	mark[n] = m.epoch
	m.jwork = append(m.jwork, jreq{n, faulty})
}
