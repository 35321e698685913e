// Package testability computes the testability measures that drive test
// point selection, exactly the toolbox the paper's TPI method draws on:
// SCOAP controllability/observability, COP signal and detection
// probabilities, per-net testability cost (TC), and fanout-free fan-in
// cone sizes.
//
// All measures are computed on the full-scan capture-mode view of the
// circuit: primary inputs and flip-flop outputs are fully controllable
// sources; primary outputs and flip-flop data inputs are fully observable
// sinks. Nets may be constrained to constants (test-mode controls such as
// scan-enable during capture).
package testability

import (
	"math"

	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// Inf is the SCOAP value used for uncontrollable/unobservable nets.
const Inf int32 = 1 << 30

// Analysis holds all computed measures, indexed by NetID.
type Analysis struct {
	// SCOAP combinational measures.
	CC0, CC1 []int32 // cost to set the net to 0 / 1
	CO       []int32 // cost to observe the net (min over branches)

	// COP probabilities under uniformly random source values.
	P1  []float64 // probability the net is 1
	Obs []float64 // probability a value change on the net reaches a sink

	// FFICone[n] is the size of the fanout-free fan-in cone of net n: the
	// number of gates whose only path to an observation point runs
	// through n. An observation point at n makes exactly these gates'
	// faults observable, so it weights test-point gain.
	FFICone []int32
}

// Options configures the analysis.
type Options struct {
	// Constraints forces nets to constant values (0 or 1), e.g. the
	// capture-mode values of scan-enable and test-point control nets.
	Constraints map[netlist.NetID]int8
}

// Analyze computes all measures for the netlist. The netlist must be
// combinationally acyclic.
func Analyze(n *netlist.Netlist, opt Options) (*Analysis, error) {
	lv, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		CC0: make([]int32, len(n.Nets)),
		CC1: make([]int32, len(n.Nets)),
		CO:  make([]int32, len(n.Nets)),
		P1:  make([]float64, len(n.Nets)),
		Obs: make([]float64, len(n.Nets)),
	}
	a.controllability(n, lv, opt)
	a.observability(n, lv, opt)
	a.fanoutFreeCones(n, lv)
	return a, nil
}

// fanoutFreeCones computes FFICone in levelized order: a gate contributes
// itself plus the cones of its single-fanout inputs.
func (a *Analysis) fanoutFreeCones(n *netlist.Netlist, lv *netlist.Levels) {
	a.FFICone = make([]int32, len(n.Nets))
	fanoutLen := n.CSR().FanoutLen
	for _, ci := range lv.Order {
		c := &n.Cells[ci]
		a.FFICone[c.Out] = coneSize(c, a, fanoutLen)
	}
}

// coneSize is the fanout-free fan-in cone of gate c's output: the gate
// plus the cones of its single-fanout inputs.
func coneSize(c *netlist.Instance, a *Analysis, fanoutLen func(netlist.NetID) int) int32 {
	size := int32(1)
	for _, in := range c.Ins {
		if in != netlist.NoNet && fanoutLen(in) == 1 {
			size += a.FFICone[in]
		}
	}
	return size
}

// sourceKind classifies a net's source for the capture-mode view.
func sourceKind(n *netlist.Netlist, id netlist.NetID, opt Options) (isSource bool, constVal int8) {
	if v, ok := opt.Constraints[id]; ok {
		return true, v
	}
	nn := &n.Nets[id]
	if nn.Const >= 0 {
		return true, nn.Const
	}
	if nn.PI >= 0 {
		return true, -1 // scan-controllable source
	}
	if nn.Driver != netlist.NoCell && n.Cells[nn.Driver].Cell.Kind.IsSequential() {
		return true, -1 // flip-flop output: scan-controllable
	}
	return false, 0
}

// sourceControllability is the controllability of a source net: a constant
// (cv 0 or 1) or a scan-controllable source (cv -1).
func sourceControllability(cv int8) (cc0, cc1 int32, p1 float64) {
	switch cv {
	case 0:
		return 0, Inf, 0
	case 1:
		return Inf, 0, 1
	}
	return 1, 1, 0.5
}

func (a *Analysis) controllability(n *netlist.Netlist, lv *netlist.Levels, opt Options) {
	for id := range n.Nets {
		nid := netlist.NetID(id)
		if src, cv := sourceKind(n, nid, opt); src {
			a.CC0[id], a.CC1[id], a.P1[id] = sourceControllability(cv)
		}
	}
	for _, ci := range lv.Order {
		c := &n.Cells[ci]
		out := c.Out
		if _, ok := opt.Constraints[out]; ok {
			continue // constrained nets keep their forced values
		}
		cc0, cc1, p1 := gateControllability(c, a)
		a.CC0[out], a.CC1[out], a.P1[out] = cc0, cc1, p1
	}
}

// addSat adds SCOAP costs with saturation at Inf.
func addSat(a, b int32) int32 {
	if a >= Inf || b >= Inf {
		return Inf
	}
	s := a + b
	if s >= Inf {
		return Inf
	}
	return s
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// gateControllability applies the SCOAP and COP rules for one gate.
func gateControllability(c *netlist.Instance, a *Analysis) (cc0, cc1 int32, p1 float64) {
	in := c.Ins
	g0 := func(i int) int32 { return a.CC0[in[i]] }
	g1 := func(i int) int32 { return a.CC1[in[i]] }
	p := func(i int) float64 { return a.P1[in[i]] }

	switch c.Cell.Kind {
	case stdcell.KindInv:
		return addSat(g1(0), 1), addSat(g0(0), 1), 1 - p(0)
	case stdcell.KindBuf:
		return addSat(g0(0), 1), addSat(g1(0), 1), p(0)
	case stdcell.KindAnd, stdcell.KindNand:
		sum1, min0 := int32(0), Inf
		prod := 1.0
		for i := range in {
			sum1 = addSat(sum1, g1(i))
			min0 = min32(min0, g0(i))
			prod *= p(i)
		}
		if c.Cell.Kind == stdcell.KindAnd {
			return addSat(min0, 1), addSat(sum1, 1), prod
		}
		return addSat(sum1, 1), addSat(min0, 1), 1 - prod
	case stdcell.KindOr, stdcell.KindNor:
		sum0, min1 := int32(0), Inf
		prod := 1.0
		for i := range in {
			sum0 = addSat(sum0, g0(i))
			min1 = min32(min1, g1(i))
			prod *= 1 - p(i)
		}
		if c.Cell.Kind == stdcell.KindOr {
			return addSat(sum0, 1), addSat(min1, 1), 1 - prod
		}
		return addSat(min1, 1), addSat(sum0, 1), prod
	case stdcell.KindXor:
		cc0 = addSat(min32(addSat(g0(0), g0(1)), addSat(g1(0), g1(1))), 1)
		cc1 = addSat(min32(addSat(g0(0), g1(1)), addSat(g1(0), g0(1))), 1)
		return cc0, cc1, p(0)*(1-p(1)) + (1-p(0))*p(1)
	case stdcell.KindXnor:
		cc1 = addSat(min32(addSat(g0(0), g0(1)), addSat(g1(0), g1(1))), 1)
		cc0 = addSat(min32(addSat(g0(0), g1(1)), addSat(g1(0), g0(1))), 1)
		return cc0, cc1, 1 - (p(0)*(1-p(1)) + (1-p(0))*p(1))
	case stdcell.KindAoi21: // y = !(a·b + c)
		cc0 = addSat(min32(addSat(g1(0), g1(1)), g1(2)), 1)
		cc1 = addSat(addSat(g0(2), min32(g0(0), g0(1))), 1)
		pab := p(0) * p(1)
		return cc0, cc1, (1 - pab) * (1 - p(2))
	case stdcell.KindOai21: // y = !((a+b)·c)
		cc0 = addSat(addSat(min32(g1(0), g1(1)), g1(2)), 1)
		cc1 = addSat(min32(addSat(g0(0), g0(1)), g0(2)), 1)
		pab := 1 - (1-p(0))*(1-p(1))
		return cc0, cc1, 1 - pab*p(2)
	case stdcell.KindMux2: // y = s ? b : a
		cc0 = addSat(min32(addSat(g0(2), g0(0)), addSat(g1(2), g0(1))), 1)
		cc1 = addSat(min32(addSat(g0(2), g1(0)), addSat(g1(2), g1(1))), 1)
		return cc0, cc1, (1-p(2))*p(0) + p(2)*p(1)
	}
	return Inf, Inf, 0.5
}

func (a *Analysis) observability(n *netlist.Netlist, lv *netlist.Levels, opt Options) {
	for id := range n.Nets {
		a.CO[id] = Inf
	}
	// Sinks: primary outputs and flip-flop data-class inputs (any
	// non-clock input of a sequential cell: d, si — se sensitization is a
	// test-mode matter and already reflected by constraints).
	for _, po := range n.POs {
		if po.Net != netlist.NoNet {
			a.CO[po.Net] = 0
			a.Obs[po.Net] = 1
		}
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead || !c.Cell.Kind.IsSequential() {
			continue
		}
		for pin, in := range c.Ins {
			if !c.Cell.Inputs[pin].Clock {
				a.CO[in] = 0
				a.Obs[in] = 1
			}
		}
	}
	// Walk backwards through the levelized order: compute each gate's
	// input observabilities from its output's.
	for k := len(lv.Order) - 1; k >= 0; k-- {
		c := &n.Cells[lv.Order[k]]
		gateObservability(c, a, opt)
	}
}

// gateObservability propagates observability from c.Out to each input of
// c, then merges into the input nets (stem CO = min over branches; stem
// Obs = max over branches).
func gateObservability(c *netlist.Instance, a *Analysis, opt Options) {
	co := a.CO[c.Out]
	obs := a.Obs[c.Out]
	for i, net := range c.Ins {
		if _, constrained := opt.Constraints[net]; constrained {
			continue // constants cannot be observed through
		}
		cost, prob := sensitisation(c, a, i)
		if v := addSat(addSat(co, cost), 1); v < a.CO[net] {
			a.CO[net] = v
		}
		if p := obs * prob; p > a.Obs[net] {
			a.Obs[net] = p
		}
	}
}

// sensitisation returns what it takes for a change on input pin i of gate
// c to reach the gate's output: the SCOAP cost of setting the other
// inputs to their non-masking values and the COP probability that random
// values do so. It is the one place these per-pin expressions live: the
// full pass pushes them from each gate and the incremental session pulls
// them per load, and both must round identically.
func sensitisation(c *netlist.Instance, a *Analysis, i int) (cost int32, prob float64) {
	in := c.Ins
	g0 := func(j int) int32 { return a.CC0[in[j]] }
	g1 := func(j int) int32 { return a.CC1[in[j]] }
	p := func(j int) float64 { return a.P1[in[j]] }

	switch c.Cell.Kind {
	case stdcell.KindInv, stdcell.KindBuf:
		return 0, 1
	case stdcell.KindAnd, stdcell.KindNand:
		cost, prob = 0, 1.0
		for j := range in {
			if j != i {
				cost = addSat(cost, g1(j))
				prob *= p(j)
			}
		}
		return cost, prob
	case stdcell.KindOr, stdcell.KindNor:
		cost, prob = 0, 1.0
		for j := range in {
			if j != i {
				cost = addSat(cost, g0(j))
				prob *= 1 - p(j)
			}
		}
		return cost, prob
	case stdcell.KindXor, stdcell.KindXnor:
		return min32(g0(1-i), g1(1-i)), 1
	case stdcell.KindAoi21: // y = !(a·b + c)
		switch i {
		case 0:
			return addSat(g1(1), g0(2)), p(1) * (1 - p(2))
		case 1:
			return addSat(g1(0), g0(2)), p(0) * (1 - p(2))
		}
		return min32(g0(0), g0(1)), 1 - p(0)*p(1)
	case stdcell.KindOai21: // y = !((a+b)·c)
		switch i {
		case 0:
			return addSat(g0(1), g1(2)), (1 - p(1)) * p(2)
		case 1:
			return addSat(g0(0), g1(2)), (1 - p(0)) * p(2)
		}
		return min32(g1(0), g1(1)), 1 - (1-p(0))*(1-p(1))
	case stdcell.KindMux2: // y = s ? b : a
		switch i {
		case 0:
			return g0(2), 1 - p(2)
		case 1:
			return g1(2), p(2)
		}
		return min32(addSat(g1(0), g0(1)), addSat(g0(0), g1(1))), p(0)*(1-p(1)) + (1-p(0))*p(1)
	}
	return Inf, 0 // unknown kind: nothing propagates
}

// TC returns the testability cost of a net: the number of random patterns
// (log2) expected to detect its hardest stuck-at fault, from the COP
// detection probabilities P1·Obs (stuck-at-0, visible when the good value
// is 1) and (1−P1)·Obs (stuck-at-1). Large TC = hard net; Inf-like values
// are capped at 64.
func (a *Analysis) TC(id netlist.NetID) float64 {
	d := math.Min(a.P1[id]*a.Obs[id], (1-a.P1[id])*a.Obs[id])
	if d <= 0 {
		return 64
	}
	tc := -math.Log2(d)
	if tc > 64 {
		return 64
	}
	return tc
}
