// Package cts inserts buffered clock trees (the paper's CT-GEN step):
// per clock domain, flip-flop clock pins are clustered geometrically and
// driven through a recursive buffer tree, the buffers are ECO-placed, and
// the resulting insertion delays and skew fall out of the downstream
// static timing analysis which traces the tree like any other logic.
package cts

import (
	"fmt"
	"sort"

	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/telemetry"
)

// Tree parameters.
const (
	// maxFanout is the number of sinks a single tree buffer may drive.
	maxFanout = 20
	// bufferCell is the library buffer used for tree levels.
	bufferCell = "BUFX8"
)

// Options configures clock-tree synthesis.
type Options struct {
	// Telemetry, when non-nil, receives the clock-tree counters
	// (cts.domains, cts.sinks, cts.buffers, cts.levels) on the CTS
	// stage's span; silent (and free) by default.
	Telemetry *telemetry.Span
}

// Result describes the synthesized trees.
type Result struct {
	// Buffers lists all inserted clock buffers.
	Buffers []netlist.CellID
	// Levels is the depth of the deepest tree.
	Levels int
}

// sink is one clock pin to drive.
type sink struct {
	cell netlist.CellID
	pin  int
	x, y float64
}

// Insert builds a buffered tree for every clock domain and ECO-places the
// new buffers.
func Insert(n *netlist.Netlist, p *place.Placement, opt Options) (*Result, error) {
	res := &Result{}
	sinkTotal := 0
	for dom := range n.Domains {
		root := n.PIs[n.Domains[dom].ClockPI].Net
		var sinks []sink
		for _, ff := range n.FlipFlops() {
			c := &n.Cells[ff]
			if c.Domain != dom {
				continue
			}
			pin := c.Cell.FindInput("clk")
			if pin < 0 || c.Ins[pin] != root {
				continue
			}
			x, y := p.Pos(ff)
			sinks = append(sinks, sink{cell: ff, pin: pin, x: x, y: y})
		}
		if len(sinks) == 0 {
			continue
		}
		sinkTotal += len(sinks)
		levels := buildTree(n, res, root, sinks, fmt.Sprintf("ctb_d%d", dom), 0)
		if levels > res.Levels {
			res.Levels = levels
		}
	}
	if err := p.ECO(); err != nil {
		return nil, err
	}
	if sp := opt.Telemetry; sp != nil {
		sp.Add("cts.domains", int64(len(n.Domains)))
		sp.Add("cts.sinks", int64(sinkTotal))
		sp.Add("cts.buffers", int64(len(res.Buffers)))
		sp.Add("cts.levels", int64(res.Levels))
	}
	return res, nil
}

// Remove tears a previously inserted clock tree back out: every buffer's
// loads are reconnected to the buffer's input and the buffer is killed.
// Buffers are processed in reverse insertion order so parent nets are
// still alive when children fold into them. Used by timing-optimization
// design iterations, which re-place and re-buffer from scratch.
func Remove(n *netlist.Netlist, r *Result) {
	for i := len(r.Buffers) - 1; i >= 0; i-- {
		buf := r.Buffers[i]
		c := &n.Cells[buf]
		src := c.Ins[0]
		loads := append([]netlist.Load(nil), n.CSR().Fanout(c.Out)...)
		n.MoveLoads(c.Out, src, loads)
		n.KillCell(buf)
	}
	r.Buffers = nil
	r.Levels = 0
}

// buildTree recursively splits sinks into clusters of at most maxFanout,
// inserting one buffer per cluster, and returns the tree depth.
func buildTree(n *netlist.Netlist, res *Result, src netlist.NetID, sinks []sink, prefix string, depth int) int {
	if len(sinks) <= maxFanout {
		for _, s := range sinks {
			n.SetInput(s.cell, s.pin, src)
		}
		return depth
	}
	// Split along the wider spatial extent at the median, keeping the
	// tree geometrically balanced (recursive-bisection CTS).
	minX, maxX := sinks[0].x, sinks[0].x
	minY, maxY := sinks[0].y, sinks[0].y
	for _, s := range sinks {
		if s.x < minX {
			minX = s.x
		}
		if s.x > maxX {
			maxX = s.x
		}
		if s.y < minY {
			minY = s.y
		}
		if s.y > maxY {
			maxY = s.y
		}
	}
	if maxX-minX >= maxY-minY {
		sort.Slice(sinks, func(i, j int) bool { return sinks[i].x < sinks[j].x })
	} else {
		sort.Slice(sinks, func(i, j int) bool { return sinks[i].y < sinks[j].y })
	}
	mid := len(sinks) / 2
	depthMax := depth
	for half, group := range [][]sink{sinks[:mid], sinks[mid:]} {
		out := n.AddNet(fmt.Sprintf("%s_%d_%d", prefix, depth, half))
		buf := n.AddCell(fmt.Sprintf("%s_%d_%d", prefix, depth, half),
			n.Lib.MustCell(bufferCell), []netlist.NetID{src}, out)
		n.Cells[buf].Tag = netlist.TagClockBuf
		res.Buffers = append(res.Buffers, buf)
		d := buildTree(n, res, out, group, fmt.Sprintf("%s_%d", prefix, half), depth+1)
		if d > depthMax {
			depthMax = d
		}
	}
	return depthMax
}
