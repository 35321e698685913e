// Package sta is a graph-based static timing analyzer in the mold of the
// paper's Pearl step: levelized arrival-time and slew propagation, NLDM
// table lookups (with out-of-range extrapolation reported as slow nodes),
// Elmore wire delays from extracted parasitics, per-domain critical paths
// with the paper's Eq. 3 decomposition
//
//	T_cp = T_wires + T_intrinsic + T_load-dep + T_setup + T_skew
//
// and F_max = 1/T_cp. Application-mode case analysis (TE=TR=0, SE=0)
// propagates constants so that paths only sensitizable in test mode are
// blocked, as the paper does before reporting timing.
package sta

import (
	"context"
	"fmt"
	"math"

	"tpilayout/internal/extract"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/telemetry"
)

// The design's boundary conditions.
const (
	// inputSlew is the edge rate assumed at primary inputs in ps.
	inputSlew = 40
	// primaryOutputLoad is the external load on POs in fF.
	primaryOutputLoad = 8
)

// Options configures the analysis.
type Options struct {
	// Constraints holds application-mode constants for case analysis.
	Constraints map[netlist.NetID]int8
	// Telemetry, when non-nil, receives the analysis counters
	// (sta.domains, sta.path_cells, sta.slow_nodes) and the
	// sta.critical_tcp_ps / sta.worst_skew_ps gauges on the STA stage's
	// span. Nil costs nothing.
	Telemetry *telemetry.Span
}

// PathReport describes one domain's critical register-to-register path.
type PathReport struct {
	Domain int
	// Tcp is the minimum clock period in ps; FmaxMHz = 1e6/Tcp.
	Tcp     float64
	FmaxMHz float64
	// Eq. 3 decomposition (ps).
	TWires, TIntrinsic, TLoadDep, TSetup, TSkew float64
	// Launch and capture flops and the combinational cells between them.
	Launch, Capture netlist.CellID
	PathCells       []netlist.CellID
}

// Result is the full analysis outcome.
type Result struct {
	// PerDomain critical paths, indexed by domain.
	PerDomain []PathReport
	// SlowNodes counts cells whose delay lookup extrapolated beyond the
	// characterized tables (Pearl's slow nodes).
	SlowNodes int
	// ClkArrival is the clock-tree insertion delay per flip-flop cell
	// (ps), NaN for non-flops.
	ClkArrival []float64
	// WorstSkew is the max-min clock arrival difference per domain.
	WorstSkew []float64
}

// arc records how a net's worst arrival was produced.
type arc struct {
	fromNet  netlist.NetID
	viaCell  netlist.CellID
	wire     float64 // wire delay into the cell input
	intrin   float64 // intrinsic part of the cell delay
	loadDep  float64 // load-dependent part
	isSource bool
}

type analyzer struct {
	n    *netlist.Netlist
	par  *extract.Parasitics
	opt  Options
	ctx  context.Context
	cons []int8 // propagated constants per net (-1 = toggling)

	at    []float64
	slew  []float64
	from  []arc
	order []netlist.CellID

	// poExtra[net] is the external PO load on the net (0 for non-PO
	// nets), precomputed so evalCell avoids a scan over all POs per cell.
	poExtra []float64

	slowSeen []bool
	slow     int
}

// AnalyzeContext runs STA over the routed, extracted design under ctx: the
// levelized sweeps check the context every few thousand cells, so a
// cancel lands within one propagation slice, not one full analysis.
func AnalyzeContext(ctx context.Context, n *netlist.Netlist, par *extract.Parasitics, opt Options) (*Result, error) {
	lv, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	a := &analyzer{n: n, par: par, opt: opt, ctx: ctx, order: lv.Order,
		slowSeen: make([]bool, len(n.Cells)),
		poExtra:  make([]float64, len(n.Nets))}
	for _, po := range n.POs {
		if po.Net != netlist.NoNet {
			a.poExtra[po.Net] = primaryOutputLoad
		}
	}
	a.propagateConstants()

	res := &Result{
		ClkArrival: make([]float64, len(n.Cells)),
		PerDomain:  make([]PathReport, len(n.Domains)),
		WorstSkew:  make([]float64, len(n.Domains)),
	}
	for i := range res.ClkArrival {
		res.ClkArrival[i] = math.NaN()
	}

	// Pass 1: clock-tree arrivals. Only clock roots are timing sources;
	// everything reachable (the buffer trees) gets an arrival.
	a.reset()
	for dom := range n.Domains {
		root := n.PIs[n.Domains[dom].ClockPI].Net
		a.at[root] = 0
		a.slew[root] = inputSlew
	}
	if err := a.propagate(); err != nil {
		return nil, err
	}
	ffs := n.FlipFlops()
	for _, ff := range ffs {
		c := &n.Cells[ff]
		pin := c.Cell.FindInput("clk")
		clkNet := c.Ins[pin]
		if a.at[clkNet] == negInf {
			return nil, fmt.Errorf("sta: flop %s has no timed clock path", c.Name)
		}
		res.ClkArrival[ff] = a.at[clkNet] + a.par.WireDelay(clkNet)
	}
	for dom := range n.Domains {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, ff := range ffs {
			if n.Cells[ff].Domain != dom {
				continue
			}
			v := res.ClkArrival[ff]
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi >= lo {
			res.WorstSkew[dom] = hi - lo
		}
	}

	// Pass 2, per domain: launch from that domain's flops (and primary
	// inputs at t=0), capture at that domain's flops. Cross-domain paths
	// are excluded, as in the paper's false-path blocking.
	for dom := range n.Domains {
		rep, err := a.domainPass(dom, res.ClkArrival)
		if err != nil {
			return nil, err
		}
		res.PerDomain[dom] = rep
	}
	res.SlowNodes = a.slow
	if sp := opt.Telemetry; sp != nil {
		sp.Add("sta.domains", int64(len(res.PerDomain)))
		sp.Add("sta.slow_nodes", int64(res.SlowNodes))
		pathCells, worstTcp, worstSkew := 0, 0.0, 0.0
		for _, rep := range res.PerDomain {
			pathCells += len(rep.PathCells)
			worstTcp = math.Max(worstTcp, rep.Tcp)
		}
		for _, sk := range res.WorstSkew {
			worstSkew = math.Max(worstSkew, sk)
		}
		sp.Add("sta.path_cells", int64(pathCells))
		sp.Set("sta.critical_tcp_ps", worstTcp)
		sp.Set("sta.worst_skew_ps", worstSkew)
	}
	return res, nil
}

const negInf = math.SmallestNonzeroFloat64 - math.MaxFloat64

func (a *analyzer) reset() {
	nNets := len(a.n.Nets)
	if a.at == nil {
		a.at = make([]float64, nNets)
		a.slew = make([]float64, nNets)
		a.from = make([]arc, nNets)
	}
	for i := 0; i < nNets; i++ {
		a.at[i] = negInf
		a.slew[i] = inputSlew
		a.from[i] = arc{fromNet: netlist.NoNet, viaCell: netlist.NoCell}
	}
}

// propagateConstants computes application-mode constants over the logic.
func (a *analyzer) propagateConstants() {
	n := a.n
	a.cons = make([]int8, len(n.Nets))
	for i := range a.cons {
		a.cons[i] = -1
		if n.Nets[i].Const >= 0 {
			a.cons[i] = n.Nets[i].Const
		}
	}
	for net, v := range a.opt.Constraints {
		a.cons[net] = v
	}
	val := func(id netlist.NetID) uint8 {
		if a.cons[id] < 0 {
			return 2
		}
		return uint8(a.cons[id])
	}
	var insBuf [8]uint8
	for _, ci := range a.order {
		c := &a.n.Cells[ci]
		if a.cons[c.Out] >= 0 {
			continue
		}
		ins := insBuf[:len(c.Ins)]
		for i, in := range c.Ins {
			ins[i] = val(in)
		}
		if out := logicsim.Eval3(c.Cell.Kind, ins); out != 2 {
			a.cons[c.Out] = int8(out)
		}
	}
}

// activeArc reports whether the arc from input pin into cell c is
// sensitizable under case analysis: constant inputs launch nothing, and a
// mux with a constant select only passes its selected data input.
func (a *analyzer) activeArc(c *netlist.Instance, pin int) bool {
	in := c.Ins[pin]
	if a.cons[in] >= 0 || (c.Out != netlist.NoNet && a.cons[c.Out] >= 0) {
		return false
	}
	if c.Cell.Kind == stdcell.KindMux2 {
		if sv := a.cons[c.Ins[2]]; sv >= 0 {
			// Select frozen: only the selected data arc is real.
			if (sv == 0 && pin != 0) || (sv == 1 && pin != 1) {
				return false
			}
		}
	}
	return true
}

// propagate sweeps the levelized order once, computing worst arrivals.
// The context is checked every few thousand cells — the cancellation
// work unit of the analysis.
func (a *analyzer) propagate() error {
	for i, ci := range a.order {
		if i&4095 == 0 && a.ctx != nil {
			if err := a.ctx.Err(); err != nil {
				return err
			}
		}
		a.evalCell(ci)
	}
	return nil
}

func (a *analyzer) evalCell(ci netlist.CellID) {
	c := &a.n.Cells[ci]
	out := c.Out
	if out == netlist.NoNet {
		return
	}
	load := a.par.TotalLoad(out) + a.poLoad(out)
	for pin, in := range c.Ins {
		if in == netlist.NoNet || a.at[in] == negInf || !a.activeArc(c, pin) {
			continue
		}
		inAT := a.at[in] + a.par.WireDelay(in)
		inSlew := a.slew[in]
		d, intrin, ldep, oslew, ex := a.cellDelay(c.Cell, inSlew, load)
		if ex && !a.slowSeen[ci] {
			a.slowSeen[ci] = true
			a.slow++
		}
		if t := inAT + d; t > a.at[out] {
			a.at[out] = t
			a.slew[out] = oslew
			a.from[out] = arc{fromNet: in, viaCell: ci,
				wire: a.par.WireDelay(in), intrin: intrin, loadDep: ldep}
		}
	}
}

// poLoad adds the external load when the net drives a primary output.
func (a *analyzer) poLoad(net netlist.NetID) float64 { return a.poExtra[net] }

// cellDelay evaluates the NLDM tables, splitting the delay into intrinsic
// (the zero-load, fast-edge table corner) and load/slew-dependent parts.
func (a *analyzer) cellDelay(cell *stdcell.Cell, slew, load float64) (d, intrin, loadDep, outSlew float64, extrapolated bool) {
	d, ex1 := cell.Delay.Lookup(slew, load)
	intrin = cell.Delay.Values[0][0]
	if d < intrin {
		intrin = d // extrapolation below the corner: keep the split sane
	}
	loadDep = d - intrin
	outSlew, ex2 := cell.OutSlew.Lookup(slew, load)
	return d, intrin, loadDep, outSlew, ex1 || ex2
}

// domainPass computes the critical path captured by flops of one domain.
func (a *analyzer) domainPass(dom int, clkArr []float64) (PathReport, error) {
	n := a.n
	a.reset()
	// Sources: primary inputs (non-clock, unconstrained) at t=0 and this
	// domain's flop outputs at clkArr + clk→q.
	for _, pi := range n.PIs {
		if pi.Clock {
			continue
		}
		if _, frozen := a.opt.Constraints[pi.Net]; frozen {
			continue
		}
		a.at[pi.Net] = 0
		a.slew[pi.Net] = inputSlew
	}
	ffs := n.FlipFlops()
	for _, ff := range ffs {
		c := &n.Cells[ff]
		if c.Domain != dom || c.Out == netlist.NoNet {
			continue
		}
		load := a.par.TotalLoad(c.Out) + a.poLoad(c.Out)
		d, intrin, ldep, oslew, ex := a.cellDelay(c.Cell, inputSlew, load)
		if ex && !a.slowSeen[ff] {
			a.slowSeen[ff] = true
			a.slow++
		}
		a.at[c.Out] = clkArr[ff] + d
		a.slew[c.Out] = oslew
		a.from[c.Out] = arc{fromNet: netlist.NoNet, viaCell: ff,
			intrin: intrin, loadDep: ldep, isSource: true}
	}
	if err := a.propagate(); err != nil {
		return PathReport{}, err
	}

	// Endpoints: d pins of this domain's flops.
	rep := PathReport{Domain: dom, Tcp: -1}
	var worstFF netlist.CellID = netlist.NoCell
	var worstD netlist.NetID = netlist.NoNet
	for _, ff := range ffs {
		c := &n.Cells[ff]
		if c.Domain != dom {
			continue
		}
		di := c.Cell.FindInput("d")
		if di < 0 {
			continue
		}
		dNet := c.Ins[di]
		if a.at[dNet] == negInf {
			continue
		}
		arrive := a.at[dNet] + a.par.WireDelay(dNet)
		tcp := arrive + c.Cell.Setup - clkArr[ff]
		if tcp > rep.Tcp {
			rep.Tcp = tcp
			worstFF = ff
			worstD = dNet
		}
	}
	if worstFF == netlist.NoCell {
		return rep, nil // domain with no timed register-to-register path
	}
	a.fillReport(&rep, worstFF, worstD, clkArr)
	return rep, nil
}

// fillReport backtracks the worst path and produces the Eq. 3 split.
func (a *analyzer) fillReport(rep *PathReport, capture netlist.CellID, dNet netlist.NetID, clkArr []float64) {
	n := a.n
	c := &n.Cells[capture]
	rep.Launch = netlist.NoCell // stays NoCell for primary-input launches
	rep.Capture = capture
	rep.TSetup = c.Cell.Setup
	rep.TWires = a.par.WireDelay(dNet)

	net := dNet
	for {
		ar := a.from[net]
		if ar.viaCell == netlist.NoCell {
			break // primary-input launch
		}
		rep.TIntrinsic += ar.intrin
		rep.TLoadDep += ar.loadDep
		rep.PathCells = append(rep.PathCells, ar.viaCell)
		if ar.isSource {
			rep.Launch = ar.viaCell
			break
		}
		rep.TWires += ar.wire
		net = ar.fromNet
	}
	// Reverse into launch→capture order.
	for i, j := 0, len(rep.PathCells)-1; i < j; i, j = i+1, j-1 {
		rep.PathCells[i], rep.PathCells[j] = rep.PathCells[j], rep.PathCells[i]
	}
	// Tcp subtracts the capture clock's arrival, so Eq. 3 needs it in the
	// skew term whatever launched the path: a primary input launches at 0.
	launchArr := 0.0
	if rep.Launch != netlist.NoCell {
		launchArr = clkArr[rep.Launch]
	}
	if skew := launchArr - clkArr[capture]; !math.IsNaN(skew) {
		rep.TSkew = skew
	}
	if rep.Tcp > 0 {
		rep.FmaxMHz = 1e6 / rep.Tcp
	}
}
