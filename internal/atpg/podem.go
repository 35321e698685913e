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
}

type decision struct {
	src     netlist.NetID
	val     uint8
	flipped bool
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
	return p.search(f, 0)
}

// abortSnap freezes a search at its abort point: the settled planes, the
// D-frontier candidate list (whose order the objective's first-wins argmin
// consumes), the decision stack — with the pending flip already applied to
// the top entry but not yet assigned, exactly as generate leaves it — and
// the backtrack count at the abort check.
type abortSnap struct {
	planes     []uint8
	cand       []netlist.CellID
	decisions  []decision
	backtracks int
}

// snapshot captures the current abort state; call only immediately after
// generate returned genAborted.
func (p *podem) snapshot() *abortSnap {
	return &abortSnap{
		planes:     append([]uint8(nil), p.s.P...),
		cand:       append([]netlist.CellID(nil), p.s.cand...),
		decisions:  append([]decision(nil), p.decisions...),
		backtracks: p.btLimit + 1,
	}
}

// resume continues an aborted search under the current (larger) backtrack
// limit from its abort snapshot instead of re-deriving the whole prefix.
// This is exact: PODEM is deterministic and the backtrack limit only gates
// the abort check, so a from-scratch run at the larger limit would retrace
// the identical decision sequence to the abort point, arrive at exactly
// the snapshot state with the same pending flip, execute that flip (the
// count now being under the limit), and carry on — which is precisely what
// resume does directly.
func (p *podem) resume(f fault.Fault, snap *abortSnap) ([]int8, genResult) {
	p.s.restore(f, snap.planes, snap.cand)
	p.decisions = append(p.decisions[:0], snap.decisions...)
	p.nTargets++
	// Execute the flip the abort cut short.
	d := &p.decisions[len(p.decisions)-1]
	p.s.assign(d.src, d.val)
	return p.search(f, snap.backtracks)
}

// search is the PODEM decision loop shared by generate and resume.
func (p *podem) search(f fault.Fault, backtracks int) ([]int8, genResult) {
	for {
		if p.s.detected() {
			return p.cube(), genSuccess
		}
		objNet, objVal, state := p.objective(f)
		assigned := false
		if state == objOK {
			if src, val, ok := p.backtrace(objNet, objVal); ok {
				p.decisions = append(p.decisions, decision{src: src, val: val})
				p.s.assign(src, val)
				assigned = true
			}
		}
		if assigned {
			continue
		}
		// Backtrack.
		for {
			if len(p.decisions) == 0 {
				return nil, genUntestable
			}
			d := &p.decisions[len(p.decisions)-1]
			if !d.flipped {
				d.flipped = true
				d.val = 1 - d.val
				backtracks++
				p.nBacktracks++
				if backtracks > p.btLimit {
					return nil, genAborted
				}
				p.s.assign(d.src, d.val)
				break
			}
			p.s.assign(d.src, lX)
			p.decisions = p.decisions[:len(p.decisions)-1]
		}
	}
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
		objNet, objVal, state := p.objective(f)
		assigned := false
		if state == objOK {
			if src, val, ok := p.backtrace(objNet, objVal); ok {
				p.decisions = append(p.decisions, decision{src: src, val: val})
				p.s.assign(src, val)
				assigned = true
			}
		}
		if assigned {
			continue
		}
		for {
			if len(p.decisions) == checkpoint {
				return false // cannot serve f under the frozen cube
			}
			d := &p.decisions[len(p.decisions)-1]
			if !d.flipped {
				d.flipped = true
				d.val = 1 - d.val
				backtracks++
				p.nBacktracks++
				if backtracks > budget {
					p.rollback(checkpoint)
					return false
				}
				p.s.assign(d.src, d.val)
				break
			}
			p.s.assign(d.src, lX)
			p.decisions = p.decisions[:len(p.decisions)-1]
		}
	}
}

// rollback unassigns decisions above the checkpoint.
func (p *podem) rollback(checkpoint int) {
	for len(p.decisions) > checkpoint {
		d := p.decisions[len(p.decisions)-1]
		p.s.assign(d.src, lX)
		p.decisions = p.decisions[:len(p.decisions)-1]
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
// observability that still has an X-path to a sink.
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
	bestCO := testability.Inf + 1
	for _, ci := range p.s.frontier() {
		out := p.v.CellOut[ci]
		if !p.s.xpathFrom(out) {
			continue
		}
		if co := p.ta.CO[out]; co < bestCO {
			bestCO = co
			best = ci
		}
	}
	if best == netlist.NoCell {
		return 0, 0, objFail
	}
	return p.propObjective(best)
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
