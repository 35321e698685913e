package atpg

import (
	"tpilayout/internal/fault"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/testability"
)

// genResult is the outcome of one PODEM run.
type genResult int

const (
	genSuccess genResult = iota
	genUntestable
	genAborted
)

// podem generates a test cube for one fault using the PODEM algorithm:
// decisions are made only at sources (PIs and scan cells), objectives are
// chosen from fault activation and the D-frontier, and backtracing is
// guided by SCOAP controllability.
//
// The search state is a function of the fault and the decision stack
// alone: the planes are the fixed point of the assignments, and objective
// and backtrace read nothing else (the candidate list is only ever a
// superset of the D-frontier, and ties between candidates are broken by a
// total order). So going back is a restore.
type podem struct {
	v       *View
	s       *sim5
	ta      *testability.Analysis
	btLimit int

	decisions []decision

	// Search-effort statistics (the generator is strictly serial, so
	// plain ints suffice); atpg flushes them into telemetry counters
	// once per run. They replace any per-event logging: the engine is
	// silent by default and the numbers still reach the trace.
	nTargets    int64 // generate calls (primary PODEM targets)
	nBacktracks int64 // decision flips across generate and extend
	nBlocked    int64 // secondaries compactInto skipped as blocked
}

// decision is one source assignment on the stack. mark and ncand are the
// lengths of the simulator's trail and candidate list just before it was
// assigned: undoing to them is the state the decision was made in.
type decision struct {
	src         netlist.NetID
	val         uint8
	flipped     bool
	mark, ncand int32
}

func newPodem(v *View, ta *testability.Analysis, btLimit int) *podem {
	return &podem{v: v, s: newSim5(v), ta: ta, btLimit: btLimit}
}

// generate runs PODEM for fault f. On success the returned cube holds one
// value per view source: 0, 1, or -1 for don't-care.
func (p *podem) generate(f fault.Fault) ([]int8, genResult) {
	p.s.setFault(f)
	p.decisions = p.decisions[:0]
	p.nTargets++
	for backtracks := 0; ; {
		if p.s.detected() {
			return p.cube(), genSuccess
		}
		if p.advance(f) {
			continue
		}
		if !p.backtrack(0) {
			return nil, genUntestable
		}
		if backtracks++; backtracks > p.btLimit {
			return nil, genAborted
		}
		p.assignAt(len(p.decisions) - 1)
	}
}

// load installs f with the specified bits of cube assigned as frozen
// decisions — the state generate leaves after a success — and reports
// whether the cube detects f.
func (p *podem) load(f fault.Fault, cube []int8) bool {
	p.s.setFault(f)
	p.decisions = p.decisions[:0]
	for i, b := range cube {
		if b >= 0 {
			p.decisions = append(p.decisions, decision{src: p.v.Sources[i], val: uint8(b), flipped: true})
			p.assignAt(len(p.decisions) - 1)
		}
	}
	return p.s.detected()
}

// assignAt assigns decision i of the stack from the current state.
func (p *podem) assignAt(i int) {
	d := &p.decisions[i]
	d.mark, d.ncand = int32(len(p.s.trail)), int32(len(p.s.cand))
	p.s.assign(d.src, d.val)
}

// advance makes the next decision towards detecting f — objective,
// backtrace, assign — and reports false when there is none to make.
func (p *podem) advance(f fault.Fault) bool {
	objNet, objVal, state := p.objective(f)
	if state != objOK {
		return false
	}
	src, val, ok := p.backtrace(objNet, objVal)
	if !ok {
		return false
	}
	p.decisions = append(p.decisions, decision{src: src, val: val})
	p.assignAt(len(p.decisions) - 1)
	return true
}

// backtrack undoes the decisions above floor down to the deepest one not
// yet flipped, flips that one on the stack — the caller counts it and
// either assigns it or gives up — and reports false when none is left.
func (p *podem) backtrack(floor int) bool {
	for len(p.decisions) > floor {
		d := &p.decisions[len(p.decisions)-1]
		p.s.undoTo(int(d.mark), int(d.ncand))
		if !d.flipped {
			d.flipped = true
			d.val = 1 - d.val
			p.nBacktracks++
			return true
		}
		p.decisions = p.decisions[:len(p.decisions)-1]
	}
	return false
}

// extend attempts dynamic compaction: with the current assignments (from
// a successful generate) frozen, it tries to also detect fault f using
// only still-unassigned sources and a small backtrack budget. On success
// the assignments grow and extend returns true; on failure the decision
// stack is restored to its state at entry. Either way the sim is left
// retargeted to f; the caller retargets again for the next secondary.
func (p *podem) extend(f fault.Fault, budget int) bool {
	p.s.retarget(f)
	checkpoint := len(p.decisions)
	backtracks := 0
	for {
		if p.s.detected() {
			return true
		}
		if p.advance(f) {
			continue
		}
		if !p.backtrack(checkpoint) {
			return false // cannot serve f under the frozen cube
		}
		if backtracks++; backtracks > budget {
			p.rollback(checkpoint)
			return false
		}
		p.assignAt(len(p.decisions) - 1)
	}
}

// blocked reports whether the frozen cube already holds f's site at its
// stuck value in the full-circuit good plane: f cannot be activated, and
// extend would fail without a decision.
func (p *podem) blocked(f fault.Fault) bool {
	p.s.settle()
	if p.s.g(f.Net) != uint8(f.SA) {
		return false
	}
	p.nBlocked++
	return true
}

// rollback undoes the decisions above the checkpoint.
func (p *podem) rollback(checkpoint int) {
	if len(p.decisions) > checkpoint {
		d := p.decisions[checkpoint]
		p.s.undoTo(int(d.mark), int(d.ncand))
		p.decisions = p.decisions[:checkpoint]
	}
}

func (p *podem) cube() []int8 {
	cube := make([]int8, len(p.v.Sources))
	for i, src := range p.v.Sources {
		switch p.s.g(src) {
		case l0:
			cube[i] = 0
		case l1:
			cube[i] = 1
		default:
			cube[i] = -1
		}
	}
	return cube
}

type objState int

const (
	objOK objState = iota
	objFail
)

// objective picks the next goal: activate the fault if it is not yet
// activated, otherwise advance the D-frontier gate with the best
// observability that still has an X-path to a sink and a side input left to
// sensitise, ties going to the lower level and then the lower cell — a
// total order, so the choice does not depend on the order the candidate
// list happens to be in. (A multiplexer whose fault effect sits on the data
// input its known select turns away, such as a test point's scan input
// under TE = 0, has none; letting it win would fail the objective while
// other frontier gates could still propagate.)
func (p *podem) objective(f fault.Fault) (netlist.NetID, uint8, objState) {
	want := uint8(1 - f.SA)
	switch p.s.g(f.Net) {
	case lX:
		return f.Net, want, objOK
	case 1 - want:
		return 0, 0, objFail // activation impossible under current assignments
	}
	// Activated: drive the frontier.
	var best netlist.CellID = netlist.NoCell
	var bestCO int32
	var objNet netlist.NetID
	var objVal uint8
	p.s.newXpathEpoch()
	for _, ci := range p.s.cand {
		out := p.v.CellOut[ci]
		co := p.ta.CO[out]
		if best != netlist.NoCell && (co > bestCO || co == bestCO && !p.before(ci, best)) {
			continue
		}
		if !p.s.onFrontier(ci) || !p.s.xpath(out) {
			continue
		}
		if n, v, st := p.propObjective(ci); st == objOK {
			bestCO, best, objNet, objVal = co, ci, n, v
		}
	}
	if best == netlist.NoCell {
		return 0, 0, objFail
	}
	return objNet, objVal, objOK
}

// before orders two cells by (level, CellID).
func (p *podem) before(a, b netlist.CellID) bool {
	if la, lb := p.v.Level[a], p.v.Level[b]; la != lb {
		return la < lb
	}
	return a < b
}

// propObjective returns the (net, value) needed to push the fault effect
// through frontier cell ci: an X side-input set to its non-controlling
// (sensitizing) value.
func (p *podem) propObjective(ci netlist.CellID) (netlist.NetID, uint8, objState) {
	ins := p.v.fanin(ci)
	// Locate a fault-effect input (for MUX/AOI the requirement depends on
	// which pin carries the effect).
	dPin := -1
	for pin := range ins {
		if v := p.s.pinComp(ci, pin); v == cD || v == cDB {
			dPin = pin
			break
		}
	}
	pickX := func(pin int, val uint8) (netlist.NetID, uint8, bool) {
		if pin != dPin && p.s.pinComp(ci, pin) == cX {
			return ins[pin], val, true
		}
		return 0, 0, false
	}
	switch p.v.CellKind[ci] {
	case stdcell.KindAnd, stdcell.KindNand:
		for pin := range ins {
			if n, v, ok := pickX(pin, l1); ok {
				return n, v, objOK
			}
		}
	case stdcell.KindOr, stdcell.KindNor:
		for pin := range ins {
			if n, v, ok := pickX(pin, l0); ok {
				return n, v, objOK
			}
		}
	case stdcell.KindXor, stdcell.KindXnor:
		for pin := range ins {
			if n, v, ok := pickX(pin, l0); ok {
				return n, v, objOK
			}
		}
	case stdcell.KindAoi21: // y = !(a·b + c); pins a=0 b=1 c=2
		var want [3]uint8
		switch dPin {
		case 0:
			want = [3]uint8{0, l1, l0}
		case 1:
			want = [3]uint8{l0, 0, l0}
			want[0] = l1
		default:
			// Effect on c: need a·b = 0; prefer zeroing an X input.
			want = [3]uint8{l0, l0, 0}
		}
		for pin := 0; pin < 3; pin++ {
			if n, v, ok := pickX(pin, want[pin]); ok {
				return n, v, objOK
			}
		}
	case stdcell.KindOai21: // y = !((a+b)·c)
		var want [3]uint8
		switch dPin {
		case 0:
			want = [3]uint8{0, l0, l1}
		case 1:
			want = [3]uint8{l0, 0, l1}
		default:
			want = [3]uint8{l1, l1, 0} // only one of a,b needs 1; pickX takes the first X
		}
		for pin := 0; pin < 3; pin++ {
			if n, v, ok := pickX(pin, want[pin]); ok {
				return n, v, objOK
			}
		}
	case stdcell.KindMux2: // y = s ? b : a; pins a=0 b=1 s=2
		switch dPin {
		case 0:
			if n, v, ok := pickX(2, l0); ok {
				return n, v, objOK
			}
		case 1:
			if n, v, ok := pickX(2, l1); ok {
				return n, v, objOK
			}
		default:
			// Effect on select: data inputs must differ; nudge an X data
			// input toward the complement of the other.
			other := p.s.g(ins[1])
			if other == lX {
				other = l1
			}
			if n, _, ok := pickX(0, 0); ok {
				return n, 1 - other, objOK
			}
			otherA := p.s.g(ins[0])
			if otherA == lX {
				otherA = l1
			}
			if n, _, ok := pickX(1, 0); ok {
				return n, 1 - otherA, objOK
			}
		}
	}
	return 0, 0, objFail
}

// backtrace walks an objective (net, val) backwards through X-valued nets
// to an unassigned source, choosing inputs by SCOAP cost: the hardest
// input when all inputs must be set, the easiest when any one suffices.
func (p *podem) backtrace(net netlist.NetID, val uint8) (netlist.NetID, uint8, bool) {
	for steps := 0; steps < len(p.v.N.Nets)+8; steps++ {
		if p.v.SourceOf[net] >= 0 {
			if p.s.g(net) != lX {
				return 0, 0, false // objective reaches an already-assigned source
			}
			return net, val, true
		}
		d := p.v.N.Nets[net].Driver
		if d == netlist.NoCell || !p.v.Comb(d) {
			return 0, 0, false
		}
		nn, nv, ok := p.chooseInput(d, val)
		if !ok {
			return 0, 0, false
		}
		net, val = nn, nv
	}
	return 0, 0, false
}

// chooseInput picks the next (net, value) one gate back from an objective.
func (p *podem) chooseInput(ci netlist.CellID, v uint8) (netlist.NetID, uint8, bool) {
	cc := func(net netlist.NetID, bit uint8) int32 {
		if bit == l0 {
			return p.ta.CC0[net]
		}
		return p.ta.CC1[net]
	}
	in := p.v.fanin(ci)
	// pick selects the X input minimizing (or maximizing) cc(input, bit).
	pick := func(bit uint8, hardest bool) (netlist.NetID, uint8, bool) {
		var bestNet netlist.NetID = netlist.NoNet
		var bestCost int32
		for _, n := range in {
			if p.s.g(n) != lX {
				continue
			}
			cost := cc(n, bit)
			if bestNet == netlist.NoNet || (hardest && cost > bestCost) || (!hardest && cost < bestCost) {
				bestNet, bestCost = n, cost
			}
		}
		if bestNet == netlist.NoNet {
			return 0, 0, false
		}
		return bestNet, bit, true
	}
	switch p.v.CellKind[ci] {
	case stdcell.KindInv:
		return in[0], 1 - v, p.s.g(in[0]) == lX
	case stdcell.KindBuf:
		return in[0], v, p.s.g(in[0]) == lX
	case stdcell.KindAnd:
		if v == l1 {
			return pick(l1, true)
		}
		return pick(l0, false)
	case stdcell.KindNand:
		if v == l0 {
			return pick(l1, true)
		}
		return pick(l0, false)
	case stdcell.KindOr:
		if v == l0 {
			return pick(l0, true)
		}
		return pick(l1, false)
	case stdcell.KindNor:
		if v == l1 {
			return pick(l0, true)
		}
		return pick(l1, false)
	case stdcell.KindXor, stdcell.KindXnor:
		want := v
		if p.v.CellKind[ci] == stdcell.KindXnor {
			want = 1 - v
		}
		// If one input is known, the other is forced; otherwise guess 0
		// on the first X input.
		g0, g1 := p.s.g(in[0]), p.s.g(in[1])
		switch {
		case g0 == lX && g1 != lX:
			return in[0], want ^ g1, true
		case g1 == lX && g0 != lX:
			return in[1], want ^ g0, true
		case g0 == lX:
			return in[0], l0, true
		}
		return 0, 0, false
	case stdcell.KindAoi21: // y = !(a·b + c)
		if v == l0 {
			// ab = 1 or c = 1: take the cheaper option.
			costAB := addCost(p.ta.CC1[in[0]], p.ta.CC1[in[1]])
			if p.ta.CC1[in[2]] <= costAB && p.s.g(in[2]) == lX {
				return in[2], l1, true
			}
			if n, val, ok := pick2(p, in[0], in[1], l1, true); ok {
				return n, val, true
			}
			if p.s.g(in[2]) == lX {
				return in[2], l1, true
			}
			return 0, 0, false
		}
		// v == 1: need c = 0 and ab = 0.
		if p.s.g(in[2]) == lX {
			return in[2], l0, true
		}
		return pick2(p, in[0], in[1], l0, false)
	case stdcell.KindOai21: // y = !((a+b)·c)
		if v == l0 {
			if p.s.g(in[2]) == lX {
				return in[2], l1, true
			}
			return pick2(p, in[0], in[1], l1, false)
		}
		costAB := addCost(p.ta.CC0[in[0]], p.ta.CC0[in[1]])
		if p.ta.CC0[in[2]] <= costAB && p.s.g(in[2]) == lX {
			return in[2], l0, true
		}
		if n, val, ok := pick2(p, in[0], in[1], l0, true); ok {
			return n, val, true
		}
		if p.s.g(in[2]) == lX {
			return in[2], l0, true
		}
		return 0, 0, false
	case stdcell.KindMux2: // y = s ? b : a
		s := p.s.g(in[2])
		switch s {
		case l0:
			return in[0], v, p.s.g(in[0]) == lX
		case l1:
			return in[1], v, p.s.g(in[1]) == lX
		}
		// Select is free: pick the branch whose data value is cheaper.
		costA := addCost(p.ta.CC0[in[2]], cc(in[0], v))
		costB := addCost(p.ta.CC1[in[2]], cc(in[1], v))
		if costA <= costB {
			return in[2], l0, true
		}
		return in[2], l1, true
	}
	return 0, 0, false
}

// pick2 selects between exactly two candidate inputs for AOI/OAI legs.
func pick2(p *podem, a, b netlist.NetID, bit uint8, hardest bool) (netlist.NetID, uint8, bool) {
	cc := func(net netlist.NetID) int32 {
		if bit == l0 {
			return p.ta.CC0[net]
		}
		return p.ta.CC1[net]
	}
	aX := p.s.g(a) == lX
	bX := p.s.g(b) == lX
	switch {
	case aX && bX:
		if (hardest && cc(a) >= cc(b)) || (!hardest && cc(a) <= cc(b)) {
			return a, bit, true
		}
		return b, bit, true
	case aX:
		return a, bit, true
	case bX:
		return b, bit, true
	}
	return 0, 0, false
}

func addCost(a, b int32) int32 {
	if a >= testability.Inf || b >= testability.Inf {
		return testability.Inf
	}
	return a + b
}
