// Package tpi implements the paper's core subject: test point insertion
// with transparent scan flip-flops (TSFFs).
//
// A TSFF (Figure 1 of the paper) is a scan flip-flop with an input
// multiplexer (select TE) and an output multiplexer (select TR) that acts
// as an observation point and a control point at the same time:
//
//	          ┌────────┐        ┌─────┐
//	D ───────►│ 0      │ w_in   │     │ w_q  ┌────────┐
//	          │   mux  ├───┬───►│ DFF ├─────►│ 1      │
//	TI ──────►│ 1      │   │    │     │      │   mux  ├──► loads
//	          └───▲────┘   └───────────────► │ 0      │
//	              TE                         └───▲────┘
//	                                             TR
//
// Modes: application TE=0 TR=0 (transparent, two mux delays in the
// functional path); scan shift TE=1 TR=1; scan capture TE=0 TR=1 (the
// functional value is captured while the output is controlled from the
// flop); scan flush TE=1 TR=0 (combinational TI→output path).
//
// Insertion follows the paper's three steps: (1) testability-analysis-
// driven selection of target nets, (2) clock-domain assignment per TSFF,
// (3) netlist editing.
package tpi

import (
	"fmt"
	"math"

	"tpilayout/internal/netlist"
	"tpilayout/internal/testability"
)

// TestPoint records one inserted TSFF.
type TestPoint struct {
	Target  netlist.NetID // net the TSFF was inserted on (original ID)
	Out     netlist.NetID // new net driving the original loads
	InMux   netlist.CellID
	FF      netlist.CellID
	OutMux  netlist.CellID
	Domain  int
	ScoreTC float64 // testability cost of the target at selection time
}

// Options configures insertion.
type Options struct {
	// Count is the number of TSFFs to insert.
	Count int
	// Exclude blocks nets from receiving test points (e.g. nets on
	// critical paths with slack below threshold — the Section 5
	// discussion). Nets are identified by their IDs before insertion.
	Exclude map[netlist.NetID]bool
}

// Result describes the inserted test points and their control nets.
type Result struct {
	Points []TestPoint
	TE, TR netlist.NetID // global test-point control nets (NoNet if Count==0)
}

// CaptureConstraints returns the capture-mode constants: TE=0, TR=1 (the
// TSFF observes its functional input and controls its output).
func (r *Result) CaptureConstraints() map[netlist.NetID]int8 {
	m := map[netlist.NetID]int8{}
	if r.TE != netlist.NoNet {
		m[r.TE] = 0
		m[r.TR] = 1
	}
	return m
}

// ApplicationConstraints returns the functional-mode constants: TE=0,
// TR=0 (the TSFF is transparent).
func (r *Result) ApplicationConstraints() map[netlist.NetID]int8 {
	m := map[netlist.NetID]int8{}
	if r.TE != netlist.NoNet {
		m[r.TE] = 0
		m[r.TR] = 0
	}
	return m
}

// Insert selects target nets and inserts opt.Count TSFFs into n.
func Insert(n *netlist.Netlist, opt Options) (*Result, error) {
	res := &Result{TE: netlist.NoNet, TR: netlist.NoNet}
	if opt.Count <= 0 {
		return res, nil
	}
	res.TE = n.AddPI("tp_te")
	res.TR = n.AddPI("tp_tr")
	err := insertLoop(n, opt, res)
	return res, err
}

// insertLoop is the selection/insertion engine behind Insert: pick the
// best net, splice a TSFF, repeat until res holds opt.Count points.
func insertLoop(n *netlist.Netlist, opt Options, res *Result) error {
	in, err := newInserter(n, opt, res)
	if err != nil {
		return err
	}
	for len(res.Points) < opt.Count {
		net := in.best()
		if net == netlist.NoNet {
			return fmt.Errorf("tpi: no insertable net left after %d test points", len(res.Points))
		}
		if err := in.insertAt(net); err != nil {
			return err
		}
	}
	return nil
}

// inserter is the state of one Insert call. It runs the paper's
// fully iterative process — every point is chosen on the testability of
// the netlist as edited so far — with the analysis kept current by one
// testability.Session instead of being redone per point, and with the
// rank of every net cached so that choosing a point is a compare-only
// scan: only nets the session reports as moved are re-ranked.
type inserter struct {
	n    *netlist.Netlist
	sess *testability.Session
	res  *Result
	// blocked holds opt.Exclude and the targets already taken (a
	// targeted net keeps a live fanout — the in-mux pin — so without the
	// guard it could be picked twice).
	blocked []bool
	rank    []rank
}

// rank is what selection orders a candidate net by: the gain score
// (stored in TestPoint.ScoreTC), then SCOAP CC0+CC1 as a tie-break toward
// the hardest-to-control net. A negative score marks a net that cannot
// take a test point.
type rank struct {
	score float64
	cc    int32
}

func newInserter(n *netlist.Netlist, opt Options, res *Result) (*inserter, error) {
	constraints := map[netlist.NetID]int8{res.TE: 0, res.TR: 1}
	sess, err := testability.NewSession(n, testability.Options{Constraints: constraints})
	if err != nil {
		return nil, err
	}
	in := &inserter{
		n: n, sess: sess, res: res,
		blocked: make([]bool, len(n.Nets)),
		rank:    make([]rank, len(n.Nets)),
	}
	for net, excluded := range opt.Exclude {
		if excluded && int(net) < len(in.blocked) {
			in.blocked[net] = true
		}
	}
	for id := range n.Nets {
		in.refresh(netlist.NetID(id))
	}
	return in, nil
}

// insertAt splices the next test point in at net and re-ranks what the
// splice moved.
func (in *inserter) insertAt(net netlist.NetID) error {
	tp, moved, err := insertTSFF(in.n, in.sess, net, in.res.TE, in.res.TR, len(in.res.Points))
	if err != nil {
		return err
	}
	tp.ScoreTC = in.rank[net].score
	in.res.Points = append(in.res.Points, tp)
	in.blocked[net] = true
	for _, m := range moved {
		in.refresh(m)
	}
	return nil
}

// deficitBits converts a probability into "bits of deficit": 0 for
// certain events, capped at 48 for (near-)impossible ones.
func deficitBits(p float64) float64 {
	if p <= 0 {
		return 48
	}
	b := -math.Log2(p)
	if b < 0 {
		b = 0
	}
	if b > 48 {
		b = 48
	}
	return b
}

// refresh re-ranks one net by estimated test-point gain, the COP-style
// cost function of the paper's method: an observation point at net n
// fixes the observability deficit of every gate whose only observation
// path runs through n (the fanout-free fan-in cone), and the control half
// of the TSFF fixes the net's controllability deficit, so
//
//	score(n) = obsDeficitBits(n) · (1 + |FFICone(n)|) + ctrlDeficitBits(n)
//
// Nets created since the inserter was built (TSFF internals) extend the
// cache.
func (in *inserter) refresh(net netlist.NetID) {
	for int(net) >= len(in.rank) {
		in.rank = append(in.rank, rank{score: -1})
		in.blocked = append(in.blocked, false)
	}
	an := in.sess.Analysis()
	r := rank{score: -1}
	if !in.blocked[net] && insertable(in.n, in.sess, net) {
		r.score = deficitBits(an.Obs[net])*(1+float64(an.FFICone[net])) +
			deficitBits(math.Min(an.P1[net], 1-an.P1[net]))
		r.cc = an.CC0[net] + an.CC1[net]
		if r.cc > testability.Inf {
			r.cc = testability.Inf
		}
	}
	in.rank[net] = r
}

// best returns the first net of the highest rank, NoNet when no net can
// take a test point.
func (in *inserter) best() netlist.NetID {
	best, top := netlist.NoNet, rank{score: -1}
	for id, r := range in.rank {
		if r.score > top.score || (r.score == top.score && r.cc > top.cc) {
			best, top = netlist.NetID(id), r
		}
	}
	return best
}

// insertable reports whether a net can receive a TSFF: a live logic net
// driven by a functional combinational cell. Flip-flop outputs and primary
// inputs are already fully controllable/observable in full scan; nets
// created by DfT insertion are off limits.
func insertable(n *netlist.Netlist, sess *testability.Session, net netlist.NetID) bool {
	nn := &n.Nets[net]
	if nn.Dead || nn.Const >= 0 || nn.PI >= 0 {
		return false
	}
	if nn.Driver == netlist.NoCell {
		return false
	}
	d := &n.Cells[nn.Driver]
	if d.Dead || d.Tag != netlist.TagNone {
		return false
	}
	k := d.Cell.Kind
	if k.IsSequential() || k.IsPhysicalOnly() {
		return false
	}
	return sess.FanoutLen(net) > 0
}

// insertTSFF performs steps 2 and 3 for one test point: picks the clock
// domain, splices the three TSFF cells into the netlist, and brings the
// session up to date with the splice. It returns the nets the session
// reports as moved (valid until the session's next update).
func insertTSFF(n *netlist.Netlist, sess *testability.Session, tnet netlist.NetID, te, tr netlist.NetID, idx int) (TestPoint, []netlist.NetID, error) {
	dom := clockDomainFor(n, sess, tnet)
	if dom < 0 {
		return TestPoint{}, nil, fmt.Errorf("tpi: no clock domain reachable from net %s", n.Nets[tnet].Name)
	}
	clk := n.PIs[n.Domains[dom].ClockPI].Net
	lib := n.Lib

	loads := sess.Fanout(tnet)
	base := fmt.Sprintf("tp%d", idx)
	wIn := n.AddNet(base + "_win")
	wQ := n.AddNet(base + "_wq")
	wOut := n.AddNet(base + "_wout")

	// Scan-in placeholder: the scan stitcher rewires it into a chain.
	si := n.AddConst(0)

	inMux := n.AddCell(base+"_im", lib.MustCell("MUX2X1"), []netlist.NetID{tnet, si, te}, wIn)
	n.Cells[inMux].Tag = netlist.TagTestMux
	ffCell := lib.MustCell("DFFX1")
	ff := n.AddCell(base+"_ff", ffCell, []netlist.NetID{wIn, clk}, wQ)
	n.Cells[ff].Tag = netlist.TagScanFF
	n.Cells[ff].Domain = dom
	outMux := n.AddCell(base+"_om", lib.MustCell("MUX2X1"), []netlist.NetID{wIn, wQ, tr}, wOut)
	n.Cells[outMux].Tag = netlist.TagTestMux

	n.MoveLoads(tnet, wOut, loads)
	moved := sess.Update([]netlist.CellID{inMux, ff, outMux}, tnet, wOut)
	return TestPoint{
		Target: tnet,
		Out:    wOut,
		InMux:  inMux,
		FF:     ff,
		OutMux: outMux,
		Domain: dom,
	}, moved, nil
}

// clockDomainFor finds the clock domain of the sequential cells nearest to
// net: backwards through the fanin cone first, then forwards, defaulting
// to domain 0.
func clockDomainFor(n *netlist.Netlist, sess *testability.Session, net netlist.NetID) int {
	if len(n.Domains) == 0 {
		return -1
	}
	if len(n.Domains) == 1 {
		return 0
	}
	seen := make(map[netlist.NetID]bool)
	queue := []netlist.NetID{net}
	for steps := 0; len(queue) > 0 && steps < 4096; steps++ {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		d := n.Nets[id].Driver
		if d == netlist.NoCell {
			continue
		}
		c := &n.Cells[d]
		if c.Cell.Kind.IsSequential() && c.Domain >= 0 {
			return c.Domain
		}
		queue = append(queue, c.Ins...)
	}
	// Forward search through the fanout cone.
	seen = make(map[netlist.NetID]bool)
	queue = []netlist.NetID{net}
	for steps := 0; len(queue) > 0 && steps < 4096; steps++ {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, ld := range sess.Fanout(id) {
			if ld.Cell == netlist.NoCell {
				continue
			}
			c := &n.Cells[ld.Cell]
			if c.Cell.Kind.IsSequential() && c.Domain >= 0 {
				return c.Domain
			}
			if c.Out != netlist.NoNet {
				queue = append(queue, c.Out)
			}
		}
	}
	return 0
}
