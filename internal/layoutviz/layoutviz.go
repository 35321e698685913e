// Package layoutviz renders Figure 3 of the paper: the layout after
// (a) floorplanning, (b) placement, and (c) routing, as standalone SVG
// documents. The drawings show the chip outline with the IO, power, and
// ground rings, the core rows, placed cells (colored by role), and the
// routed wires.
package layoutviz

import (
	"bytes"
	"fmt"

	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/route"
)

// Stage selects which of the three Figure 3 views to draw.
type Stage int

const (
	StageFloorplan Stage = iota // rows and rings only
	StagePlacement              // plus placed cells
	StageRouted                 // plus routed wires
)

// Drawing parameters.
const (
	// pixelsPerUM scales the drawing.
	pixelsPerUM = 4.0
	// maxNets caps the number of drawn nets in the routed view; the
	// longest nets are drawn first.
	maxNets = 4000
)

// SVG renders the given stage of a placed (and, for StageRouted, routed)
// layout. r may be nil for the earlier stages.
func SVG(p *place.Placement, r *route.Result, stage Stage) []byte {
	s := pixelsPerUM
	margin := place.RingMargin
	chipW := p.CoreW() + 2*margin
	chipH := p.CoreH() + 2*margin
	side := chipW
	if chipH > side {
		side = chipH // chip forced square, as in the flow
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.2f %.2f">`+"\n",
		side*s, side*s, side, side)
	fmt.Fprintf(&b, `<rect width="%.2f" height="%.2f" fill="#ffffff"/>`+"\n", side, side)

	// Rings: IO (outer), power, ground.
	ring := func(inset, w float64, color string) {
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="none" stroke="%s" stroke-width="%.2f"/>`+"\n",
			inset, inset, side-2*inset, side-2*inset, color, w)
	}
	ring(margin*0.15, margin*0.25, "#444444") // IO ring
	ring(margin*0.50, margin*0.15, "#c0392b") // power ring
	ring(margin*0.75, margin*0.15, "#2980b9") // ground ring

	// Core origin (centered in the square chip).
	ox := (side - p.CoreW()) / 2
	oy := (side - p.CoreH()) / 2
	rowH := p.N.Lib.RowHeight

	// Rows with alternating strip shading (power strip top, ground
	// bottom of each row).
	for row := 0; row < p.NumRows; row++ {
		y := oy + float64(row)*rowH
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#f4f6f7" stroke="#d5d8dc" stroke-width="0.05"/>`+"\n",
			ox, y, p.RowLen, rowH)
	}

	if stage >= StagePlacement {
		drawCells(&b, p, ox, oy)
	}
	if stage >= StageRouted && r != nil {
		drawWires(&b, p, r, ox, oy, maxNets)
	}
	fmt.Fprint(&b, "</svg>\n")
	return b.Bytes()
}

// tagColor maps cell roles to fill colors.
func tagColor(tag netlist.Tag, seq bool) string {
	switch tag {
	case netlist.TagTestMux:
		return "#e67e22" // test-point muxes: orange
	case netlist.TagScanFF:
		return "#8e44ad" // scan elements: purple
	case netlist.TagSEBuffer:
		return "#16a085"
	case netlist.TagClockBuf:
		return "#2980b9"
	case netlist.TagFiller:
		return "#ecf0f1"
	}
	if seq {
		return "#9b59b6"
	}
	return "#aab7b8"
}

func drawCells(b *bytes.Buffer, p *place.Placement, ox, oy float64) {
	n := p.N
	rowH := n.Lib.RowHeight
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead || !p.Placed(netlist.CellID(ci)) {
			continue
		}
		x := ox + p.X[ci]
		y := oy + float64(p.Row[ci])*rowH
		fmt.Fprintf(b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="#7f8c8d" stroke-width="0.03"/>`+"\n",
			x, y+0.2, c.Cell.Width, rowH-0.4, tagColor(c.Tag, c.Cell.Kind.IsSequential()))
	}
}

func drawWires(b *bytes.Buffer, p *place.Placement, r *route.Result, ox, oy float64, maxNets int) {
	n := p.N
	csr := n.CSR()
	type job struct {
		id  netlist.NetID
		len float64
	}
	var jobs []job
	for id := range n.Nets {
		if r.NetLen[id] > 0 {
			jobs = append(jobs, job{netlist.NetID(id), r.NetLen[id]})
		}
	}
	// Longest nets first: they carry the visual structure.
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0 && jobs[j].len > jobs[j-1].len; j-- {
			jobs[j], jobs[j-1] = jobs[j-1], jobs[j]
		}
	}
	if len(jobs) > maxNets {
		jobs = jobs[:maxNets]
	}
	fmt.Fprint(b, `<g stroke="#2c3e50" stroke-width="0.08" opacity="0.35" fill="none">`+"\n")
	for _, jb := range jobs {
		nn := &n.Nets[jb.id]
		if nn.Driver == netlist.NoCell || !p.Placed(nn.Driver) {
			continue
		}
		dx, dy := p.Pos(nn.Driver)
		for _, ld := range csr.Fanout(jb.id) {
			if ld.Cell == netlist.NoCell || !p.Placed(ld.Cell) {
				continue
			}
			lx, ly := p.Pos(ld.Cell)
			// L-shaped wire: horizontal then vertical.
			fmt.Fprintf(b, `<path d="M %.2f %.2f H %.2f V %.2f"/>`+"\n",
				ox+dx, oy+dy, ox+lx, oy+ly)
		}
	}
	fmt.Fprint(b, "</g>\n")
}
