// Package scan implements full-scan insertion and scan-chain management:
// flip-flop substitution with scan equivalents, balanced chain formation,
// scan-enable buffering, and the layout-driven chain reordering of step 3
// of the paper's tool flow.
package scan

import (
	"fmt"
	"sort"

	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/tpi"
)

// Element is one scannable cell in a chain: either a scan flip-flop
// (scan-in = its si pin) or a TSFF (scan-in = the TI pin of its input
// multiplexer, scan-out = its internal flop's output).
type Element struct {
	// FF is the flip-flop providing the scan-out net.
	FF netlist.CellID
	// SIcell/SIpin locate the pin that receives the previous element's
	// scan-out.
	SIcell netlist.CellID
	SIpin  int
}

// Chain is one stitched scan chain.
type Chain struct {
	Elements []Element
	ScanIn   netlist.NetID // primary input net
	ScanOut  netlist.NetID // net of the last element's flop output (also a PO)
}

// Options configures scan insertion.
type Options struct {
	// MaxChainLength bounds the balanced chain length (0 = unbounded;
	// then MaxChains must be set).
	MaxChainLength int
	// MaxChains bounds the number of chains (0 = derived from length).
	MaxChains int
}

// seFanoutLimit is the maximum scan-enable loads per buffer before a
// buffer tree is built.
const seFanoutLimit = 24

// Result describes the inserted scan structure.
type Result struct {
	Chains []Chain
	SE     netlist.NetID // scan-enable primary input
	// SEBuffers are the scan-enable distribution buffers (step 3 of the
	// flow notes "buffers and inverters may be added to the scan-enable
	// signals").
	SEBuffers []netlist.CellID
}

// NumChains returns the chain count.
func (r *Result) NumChains() int { return len(r.Chains) }

// MaxLength returns the longest chain length l_max used by the TDV/TAT
// equations.
func (r *Result) MaxLength() int {
	m := 0
	for _, c := range r.Chains {
		if len(c.Elements) > m {
			m = len(c.Elements)
		}
	}
	return m
}

// CaptureConstraints returns the capture-mode constants contributed by scan:
// scan-enable low during capture.
func (r *Result) CaptureConstraints() map[netlist.NetID]int8 {
	return map[netlist.NetID]int8{r.SE: 0}
}

// Insert converts every plain flip-flop to a scan flip-flop, forms
// balanced chains over all scannable elements (including the TSFFs in
// tps, which may be nil), and stitches them. Chain order is initially the
// netlist order; call Reorder after placement for the layout-driven order.
func Insert(n *netlist.Netlist, tps *tpi.Result, opt Options) (*Result, error) {
	if opt.MaxChainLength <= 0 && opt.MaxChains <= 0 {
		return nil, fmt.Errorf("scan: need MaxChainLength or MaxChains")
	}
	res := &Result{SE: n.AddPI("se")}

	// TSFF internal flops are scanned through their own TE-controlled
	// input mux; collect them so the substitution pass skips them.
	tsffFF := make(map[netlist.CellID]*tpi.TestPoint)
	if tps != nil {
		for i := range tps.Points {
			tsffFF[tps.Points[i].FF] = &tps.Points[i]
		}
	}

	var elems []Element
	zero := n.AddConst(0)
	for _, ff := range n.FlipFlops() {
		c := &n.Cells[ff]
		if tp, isTSFF := tsffFF[ff]; isTSFF {
			im := n.Cells[tp.InMux]
			elems = append(elems, Element{FF: ff, SIcell: tp.InMux, SIpin: im.Cell.FindInput("b")})
			continue
		}
		if c.Cell.Kind == stdcell.KindDff {
			if err := n.SwapCell(ff, "SDFFX1", map[string]netlist.NetID{"si": zero, "se": res.SE}); err != nil {
				return nil, fmt.Errorf("scan: %w", err)
			}
			c.Tag = netlist.TagScanFF
		}
		elems = append(elems, Element{FF: ff, SIcell: ff, SIpin: c.Cell.FindInput("si")})
	}
	if len(elems) == 0 {
		return res, nil
	}

	nch := chainCount(len(elems), opt)
	res.Chains = formChains(elems, nch)
	for i := range res.Chains {
		stitch(n, &res.Chains[i], i)
	}
	res.buildSETree(n)
	return res, nil
}

// chainCount derives the balanced chain count from the options.
func chainCount(nff int, opt Options) int {
	nch := opt.MaxChains
	if opt.MaxChainLength > 0 {
		byLen := (nff + opt.MaxChainLength - 1) / opt.MaxChainLength
		if nch == 0 || byLen > nch {
			nch = byLen
		}
		if opt.MaxChains > 0 && nch > opt.MaxChains {
			nch = opt.MaxChains
		}
	}
	if nch <= 0 {
		nch = 1
	}
	if nch > nff {
		nch = nff
	}
	return nch
}

// formChains slices the element list into nch balanced chains, with no
// scan ports yet: stitch creates them.
func formChains(elems []Element, nch int) []Chain {
	chains := make([]Chain, nch)
	base := len(elems) / nch
	extra := len(elems) % nch
	pos := 0
	for i := range chains {
		l := base
		if i < extra {
			l++
		}
		chains[i] = Chain{
			Elements: append([]Element(nil), elems[pos:pos+l]...),
			ScanIn:   netlist.NoNet,
			ScanOut:  netlist.NoNet,
		}
		pos += l
	}
	return chains
}

// stitch wires one chain: a fresh scan-in PI, element-to-element si
// connections, and a scan-out PO on the last flop.
func stitch(n *netlist.Netlist, c *Chain, idx int) {
	if c.ScanIn == netlist.NoNet {
		c.ScanIn = n.AddPI(fmt.Sprintf("si%d", idx))
	}
	prev := c.ScanIn
	for _, e := range c.Elements {
		n.SetInput(e.SIcell, e.SIpin, prev)
		prev = n.Cells[e.FF].Out
	}
	if c.ScanOut == netlist.NoNet {
		c.ScanOut = prev
		n.AddPO(fmt.Sprintf("so%d", idx), prev)
	} else if c.ScanOut != prev {
		// Reordering changed the last element: retarget the PO.
		for pi := range n.POs {
			if n.POs[pi].Name == fmt.Sprintf("so%d", idx) {
				n.POs[pi].Net = prev
			}
		}
		c.ScanOut = prev
	}
}

// buildSETree splits the scan-enable load between buffers when the fanout
// exceeds seFanoutLimit, tagging the buffers for ECO placement.
func (r *Result) buildSETree(n *netlist.Netlist) {
	loads := append([]netlist.Load(nil), n.CSR().Fanout(r.SE)...)
	if len(loads) <= seFanoutLimit {
		return
	}
	for i := 0; i < len(loads); i += seFanoutLimit {
		end := i + seFanoutLimit
		if end > len(loads) {
			end = len(loads)
		}
		buf, _ := n.InsertOnNet(fmt.Sprintf("sebuf%d", i/seFanoutLimit), "BUFX4", r.SE, loads[i:end])
		n.Cells[buf].Tag = netlist.TagSEBuffer
		r.SEBuffers = append(r.SEBuffers, buf)
	}
}

// Reorder implements the layout-driven scan chain reordering of flow step
// 3: all scannable elements are re-assigned to chains and re-ordered
// within each chain from their placed positions (row-major snake order,
// which is the classic wire-length-minimizing heuristic for row-based
// layouts), then the netlist is re-stitched. pos must return the placed
// location of a cell.
func Reorder(n *netlist.Netlist, r *Result, pos func(netlist.CellID) (x, y float64)) {
	var all []Element
	for _, c := range r.Chains {
		all = append(all, c.Elements...)
	}
	if len(all) == 0 {
		return
	}
	type placed struct {
		e    Element
		x, y float64
	}
	ps := make([]placed, len(all))
	for i, e := range all {
		x, y := pos(e.FF)
		ps[i] = placed{e: e, x: x, y: y}
	}
	// Snake order: sort rows by y; alternate x direction per row.
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].y != ps[j].y {
			return ps[i].y < ps[j].y
		}
		return ps[i].x < ps[j].x
	})
	// Group by row, reversing every other row.
	var ordered []Element
	row := 0
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].y == ps[i].y {
			j++
		}
		if row%2 == 0 {
			for k := i; k < j; k++ {
				ordered = append(ordered, ps[k].e)
			}
		} else {
			for k := j - 1; k >= i; k-- {
				ordered = append(ordered, ps[k].e)
			}
		}
		row++
		i = j
	}
	nch := len(r.Chains)
	newChains := formChains(ordered, nch)
	for i := range newChains {
		newChains[i].ScanIn = r.Chains[i].ScanIn
		newChains[i].ScanOut = r.Chains[i].ScanOut
		stitch(n, &newChains[i], i)
	}
	r.Chains = newChains
}

// WireLength computes the total Manhattan length of the chain routing for
// a given placement — the quantity the layout-driven reordering minimizes.
func WireLength(r *Result, pos func(netlist.CellID) (x, y float64)) float64 {
	total := 0.0
	for _, c := range r.Chains {
		px, py := 0.0, 0.0
		for i, e := range c.Elements {
			x, y := pos(e.FF)
			if i > 0 {
				dx, dy := x-px, y-py
				if dx < 0 {
					dx = -dx
				}
				if dy < 0 {
					dy = -dy
				}
				total += dx + dy
			}
			px, py = x, y
		}
	}
	return total
}
