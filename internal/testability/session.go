package testability

import "tpilayout/internal/netlist"

// Session keeps one Analysis current while cells are spliced into the
// netlist, re-evaluating only the nets an edit can reach instead of the
// whole graph. After every Update its arrays are bit-for-bit those a fresh
// Analyze of the edited netlist would return.
//
// That holds because every measure of a net is a pure function of its
// neighbours' measures, evaluated here per net with the very expressions
// the full pass uses (gateControllability, sensitisation, coneSize) —
// pull-style, so a value never depends on the order updates arrive in:
// the stem merges are a min (CO) and a max (Obs), both exact and
// order-free. An edit seeds the nets it touched; a net is re-evaluated
// whenever something it reads was seeded or changed, and passes the event
// on only if its own value changed. On an acyclic netlist the equations
// have one solution, so whatever order the worklist runs in, it stops at
// the values of the full pass. Controllability runs to its fixpoint
// before observability starts, since observability reads controllability
// and not the reverse.
//
// The netlist's CSR and levelization are read once, when the session
// opens; afterwards the session patches its own fanout index, so a run of
// edits pays for no adjacency rebuild. The netlist must stay acyclic.
type Session struct {
	n   *netlist.Netlist
	opt Options
	a   *Analysis
	fan fanout

	ctrl, obs, cone worklist

	moved     []netlist.NetID
	movedMark []bool
}

// NewSession analyzes n in full and returns a session holding the result.
func NewSession(n *netlist.Netlist, opt Options) (*Session, error) {
	a, err := Analyze(n, opt)
	if err != nil {
		return nil, err
	}
	s := &Session{n: n, opt: opt, a: a, fan: newFanout(n.CSR())}
	s.grow()
	return s, nil
}

// Analysis returns the session's measures. The value is live: Update
// changes it in place (and may reallocate its slices as nets are added),
// so read through the pointer rather than keeping slice headers.
func (s *Session) Analysis() *Analysis { return s.a }

// Fanout returns the current loads of net, equal to and ordered as
// n.CSR().Fanout(net) would be after a rebuild. The slice is valid until
// the next Update and must not be modified.
func (s *Session) Fanout(net netlist.NetID) []netlist.Load { return s.fan.of(net) }

// FanoutLen returns the number of loads of net.
func (s *Session) FanoutLen(net netlist.NetID) int { return s.fan.len(net) }

// Update brings the session in step with one splice made to the netlist
// since the last call: the cells newCells were added (in ascending ID
// order, along with any nets they needed), and every load that from had
// was moved onto the so far unloaded net to (both NoNet if nothing
// moved). It returns the nets whose measures, fanout or driver may have
// changed — the touched nets plus every net an update moved — valid
// until the next call.
//
// The touched nets are from, to, and the output and inputs of each new
// cell: exactly the nets whose driver, load set or load pins the splice
// changed. Everything else can only move through them.
func (s *Session) Update(newCells []netlist.CellID, from, to netlist.NetID) []netlist.NetID {
	s.grow()
	for _, net := range s.moved {
		s.movedMark[net] = false
	}
	s.moved = s.moved[:0]

	// Patch the adjacency first: seeding reads the loads of touched nets.
	if from != netlist.NoNet {
		s.fan.moveAll(from, to)
	}
	for _, ci := range newCells {
		for pin, in := range s.n.Cells[ci].Ins {
			if in != netlist.NoNet {
				s.fan.add(in, netlist.Load{Cell: ci, Pin: int32(pin), PO: -1})
			}
		}
	}
	if from != netlist.NoNet {
		s.touch(from)
		s.touch(to)
	}
	for _, ci := range newCells {
		c := &s.n.Cells[ci]
		if c.Out != netlist.NoNet {
			s.touch(c.Out)
		}
		for _, in := range c.Ins {
			if in != netlist.NoNet {
				s.touch(in)
			}
		}
	}

	a := s.a
	for head := 0; head < len(s.ctrl.q); head++ {
		net := s.ctrl.pop(head)
		cc0, cc1, p1 := s.evalControllability(net)
		if cc0 != a.CC0[net] || cc1 != a.CC1[net] || p1 != a.P1[net] {
			a.CC0[net], a.CC1[net], a.P1[net] = cc0, cc1, p1
			s.markMoved(net)
			s.controllabilityMoved(net)
		}
	}
	s.ctrl.q = s.ctrl.q[:0]

	for head := 0; head < len(s.obs.q); head++ {
		net := s.obs.pop(head)
		co, obs := s.evalObservability(net)
		if co != a.CO[net] || obs != a.Obs[net] {
			a.CO[net], a.Obs[net] = co, obs
			s.markMoved(net)
			s.observabilityMoved(net)
		}
	}
	s.obs.q = s.obs.q[:0]

	for head := 0; head < len(s.cone.q); head++ {
		net := s.cone.pop(head)
		size := s.evalCone(net)
		if size != a.FFICone[net] {
			a.FFICone[net] = size
			s.markMoved(net)
			if s.fan.len(net) == 1 { // only a single-fanout net lends its cone on
				s.coneMoved(net)
			}
		}
	}
	s.cone.q = s.cone.q[:0]
	return s.moved
}

// touch seeds a net whose driver or loads the splice changed: the net and
// everything that reads it are re-evaluated whether or not a value moves
// (a moved pin reads a different net even when the numbers agree).
func (s *Session) touch(net netlist.NetID) {
	s.markMoved(net)
	s.ctrl.push(net)
	s.obs.push(net)
	s.cone.push(net)
	s.controllabilityMoved(net)
	s.observabilityMoved(net)
	s.coneMoved(net)
}

func (s *Session) markMoved(net netlist.NetID) {
	if !s.movedMark[net] {
		s.movedMark[net] = true
		s.moved = append(s.moved, net)
	}
}

// combDriver returns the combinational gate driving net, or nil for
// sources (PIs, constants, flip-flop outputs) and undriven nets.
func (s *Session) combDriver(net netlist.NetID) *netlist.Instance {
	d := s.n.Nets[net].Driver
	if d == netlist.NoCell {
		return nil
	}
	c := &s.n.Cells[d]
	if c.Cell.Kind.IsSequential() {
		return nil
	}
	return c
}

// controllabilityMoved enqueues what reads net's controllability: the
// output of every gate it feeds, and the observability of every input of
// those gates (side-input values decide what a pin can be seen through).
func (s *Session) controllabilityMoved(net netlist.NetID) {
	for _, ld := range s.fan.of(net) {
		if ld.Cell == netlist.NoCell {
			continue
		}
		c := &s.n.Cells[ld.Cell]
		if c.Cell.Kind.IsSequential() {
			continue
		}
		s.ctrl.push(c.Out)
		for _, in := range c.Ins {
			s.obs.push(in)
		}
	}
}

// observabilityMoved enqueues what reads net's observability: the inputs
// of the gate driving it.
func (s *Session) observabilityMoved(net netlist.NetID) {
	if c := s.combDriver(net); c != nil {
		for _, in := range c.Ins {
			s.obs.push(in)
		}
	}
}

// coneMoved enqueues what reads net's fanout count or cone size: the
// outputs of the gates it feeds.
func (s *Session) coneMoved(net netlist.NetID) {
	for _, ld := range s.fan.of(net) {
		if ld.Cell != netlist.NoCell && !s.n.Cells[ld.Cell].Cell.Kind.IsSequential() {
			s.cone.push(s.n.Cells[ld.Cell].Out)
		}
	}
}

// evalControllability is Analysis.controllability for one net.
func (s *Session) evalControllability(net netlist.NetID) (cc0, cc1 int32, p1 float64) {
	if src, cv := sourceKind(s.n, net, s.opt); src {
		return sourceControllability(cv)
	}
	if c := s.combDriver(net); c != nil {
		return gateControllability(c, s.a)
	}
	return 0, 0, 0
}

// evalObservability is Analysis.observability for one net: the sink rule,
// then the merge over its loads of what gateObservability pushes from
// each of them.
func (s *Session) evalObservability(net netlist.NetID) (co int32, obs float64) {
	a := s.a
	co, obs = Inf, 0
	_, constrained := s.opt.Constraints[net]
	for _, ld := range s.fan.of(net) {
		v, p := int32(0), 1.0 // a sink (PO, flip-flop data pin) sees the net directly
		if ld.Cell != netlist.NoCell {
			c := &s.n.Cells[ld.Cell]
			if c.Cell.Kind.IsSequential() {
				if c.Cell.Inputs[ld.Pin].Clock {
					continue
				}
			} else {
				if constrained {
					continue // constants cannot be observed through
				}
				cost, prob := sensitisation(c, a, int(ld.Pin))
				v, p = addSat(addSat(a.CO[c.Out], cost), 1), a.Obs[c.Out]*prob
			}
		}
		if v < co {
			co = v
		}
		if p > obs {
			obs = p
		}
	}
	return co, obs
}

// evalCone is Analysis.fanoutFreeCones for one net.
func (s *Session) evalCone(net netlist.NetID) int32 {
	if c := s.combDriver(net); c != nil {
		return coneSize(c, s.a, s.fan.len)
	}
	return 0
}

// grow extends every per-net array to the netlist's current net count.
// New nets start as a fresh Analyze would leave an undriven, unloaded
// net.
func (s *Session) grow() {
	a, nets := s.a, len(s.n.Nets)
	for len(a.CO) < nets {
		a.CC0 = append(a.CC0, 0)
		a.CC1 = append(a.CC1, 0)
		a.CO = append(a.CO, Inf)
		a.P1 = append(a.P1, 0)
		a.Obs = append(a.Obs, 0)
		a.FFICone = append(a.FFICone, 0)
	}
	for len(s.movedMark) < nets {
		s.movedMark = append(s.movedMark, false)
		s.ctrl.in = append(s.ctrl.in, false)
		s.obs.in = append(s.obs.in, false)
		s.cone.in = append(s.cone.in, false)
	}
	s.fan.grow(nets)
}

// worklist is a FIFO of nets awaiting re-evaluation, each queued at most
// once at a time.
type worklist struct {
	q  []netlist.NetID
	in []bool
}

func (w *worklist) push(net netlist.NetID) {
	if !w.in[net] {
		w.in[net] = true
		w.q = append(w.q, net)
	}
}

// pop takes the entry at head; once taken, a net may be queued again.
func (w *worklist) pop(head int) netlist.NetID {
	net := w.q[head]
	w.in[net] = false
	return net
}

// fanout is a mutable per-net load index: a copy of the CSR fanout
// arrays in which a net's segment can grow (by relocating to the end of
// the pool) or change hands. Segments keep the CSR's canonical order —
// cell loads by ascending cell ID and pin, then primary outputs.
type fanout struct {
	off, n, cap []int32 // per net: segment start, length, capacity
	loads       []netlist.Load
}

func newFanout(csr *netlist.CSR) fanout {
	nets := len(csr.FanoutIdx) - 1
	f := fanout{
		off:   append([]int32(nil), csr.FanoutIdx[:nets]...),
		n:     make([]int32, nets),
		cap:   make([]int32, nets),
		loads: append([]netlist.Load(nil), csr.FanoutLoads...),
	}
	for i := 0; i < nets; i++ {
		f.n[i] = csr.FanoutIdx[i+1] - csr.FanoutIdx[i]
		f.cap[i] = f.n[i]
	}
	return f
}

func (f *fanout) of(net netlist.NetID) []netlist.Load {
	return f.loads[f.off[net] : f.off[net]+f.n[net]]
}

func (f *fanout) len(net netlist.NetID) int { return int(f.n[net]) }

func (f *fanout) grow(nets int) {
	for len(f.off) < nets {
		f.off = append(f.off, 0)
		f.n = append(f.n, 0)
		f.cap = append(f.cap, 0)
	}
}

// moveAll hands every load of from to the unloaded net to.
func (f *fanout) moveAll(from, to netlist.NetID) {
	if f.n[to] != 0 {
		panic("testability: loads moved onto a net that already has loads")
	}
	f.off[to], f.n[to], f.cap[to] = f.off[from], f.n[from], f.cap[from]
	f.off[from], f.n[from], f.cap[from] = 0, 0, 0
}

// add records a pin of a newly added cell (whose ID exceeds every cell
// already loading net) as a load of net, ahead of the net's primary
// outputs.
func (f *fanout) add(net netlist.NetID, ld netlist.Load) {
	if f.n[net] == f.cap[net] {
		c := 2 * f.cap[net]
		if c < 4 {
			c = 4
		}
		off := int32(len(f.loads))
		f.loads = append(f.loads, make([]netlist.Load, c)...)
		copy(f.loads[off:], f.of(net))
		f.off[net], f.cap[net] = off, c
	}
	f.n[net]++
	seg := f.of(net)
	i := len(seg) - 1
	for ; i > 0 && seg[i-1].Cell == netlist.NoCell; i-- {
		seg[i] = seg[i-1]
	}
	seg[i] = ld
}
