// Package place implements the floorplanning and placement stage of the
// paper's flow (step 2) and the ECO placement of step 4.
//
// The floorplan follows the paper's setup: a square core of horizontal
// standard-cell rows (each cell carries its power/ground strip, rows are
// abutted so strips join), surrounded by IO, power, and ground rings, with
// a target row utilization; remaining row gaps are plugged with filler
// cells to keep the strips continuous. Placement is recursive min-cut
// bisection with Fiduccia–Mattheyses-style refinement, optimized for area
// (no timing-driven moves), matching the paper's "optimised for area only"
// methodology.
package place

import (
	"context"
	"fmt"
	"math"
	"sort"

	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
)

// Options configures floorplanning and placement.
type Options struct {
	// TargetUtilization is the fraction of row length holding functional
	// cells (the paper uses 0.97 for s38417/circuit-1 and 0.50 for
	// p26909).
	TargetUtilization float64
	// Telemetry, when non-nil, receives the placement counters
	// (place.cells, place.cuts, place.fm_passes, place.fm_moves,
	// place.fm_moves_tried) and the per-FM-pass cut improvement
	// distribution (place.fm_cut_delta) on the placement stage's span.
	// Nil costs nothing.
	Telemetry *telemetry.Span
}

// RingMargin is the width in µm of the IO + power + ground ring stack on
// each side of the core.
const RingMargin = 30.0

// Placement is a legalized row placement of a netlist.
type Placement struct {
	N   *netlist.Netlist
	Opt Options

	NumRows int
	RowLen  float64 // µm, uniform across rows (grows under ECO pressure)

	// X and Row give each live cell's left edge and row (-1 = unplaced).
	X   []float64
	Row []int32

	// rowUsed is the occupied site-length per row in µm.
	rowUsed []float64

	// FillerCells lists the filler instances added by InsertFillers.
	FillerCells []netlist.CellID
}

// PlaceContext floorplans and places all live cells of n under ctx: the
// recursive min-cut bisection checks the context at every cut, so a
// cancel lands within one partition refinement, not one placement.
func PlaceContext(ctx context.Context, n *netlist.Netlist, opt Options) (*Placement, error) {
	if opt.TargetUtilization <= 0 || opt.TargetUtilization > 1 {
		return nil, fmt.Errorf("place: bad utilization %g", opt.TargetUtilization)
	}
	p := &Placement{N: n, Opt: opt}
	p.floorplan()
	if err := p.global(ctx); err != nil {
		return nil, err
	}
	if err := p.legalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// floorplan sizes the square core: enough row capacity for the cell area
// at the target utilization, snapped to whole rows and sites.
func (p *Placement) floorplan() {
	lib := p.N.Lib
	area := p.N.TotalCellArea()
	rowArea := area / p.Opt.TargetUtilization
	side := math.Sqrt(rowArea)
	rows := int(math.Round(side / lib.RowHeight))
	if rows < 1 {
		rows = 1
	}
	rowLen := rowArea / (float64(rows) * lib.RowHeight)
	// Snap the row length up to whole sites.
	sites := math.Ceil(rowLen / lib.SiteWidth)
	p.NumRows = rows
	p.RowLen = sites * lib.SiteWidth
	p.rowUsed = make([]float64, rows)
}

// CoreArea returns the row area in µm² (the paper's "core area").
func (p *Placement) CoreArea() float64 {
	return float64(p.NumRows) * p.N.Lib.RowHeight * p.RowLen
}

// CoreW and CoreH return the core box dimensions.
func (p *Placement) CoreW() float64 { return p.RowLen }
func (p *Placement) CoreH() float64 { return float64(p.NumRows) * p.N.Lib.RowHeight }

// AspectRatio returns core height / width.
func (p *Placement) AspectRatio() float64 { return p.CoreH() / p.CoreW() }

// ChipArea returns the total die area: the chip is forced square around
// the core plus the ring stack, as in the paper (which notes the chip may
// hold empty space the router exploits when the core goes rectangular).
func (p *Placement) ChipArea() float64 {
	side := math.Max(p.CoreW(), p.CoreH()) + 2*RingMargin
	return side * side
}

// Pos returns the placed center of a cell (for wire-length estimation).
func (p *Placement) Pos(id netlist.CellID) (x, y float64) {
	c := &p.N.Cells[id]
	return p.X[id] + c.Cell.Width/2,
		(float64(p.Row[id]) + 0.5) * p.N.Lib.RowHeight
}

// Placed reports whether the cell has a location.
func (p *Placement) Placed(id netlist.CellID) bool {
	return int(id) < len(p.Row) && p.Row[id] >= 0
}

// RowUtilization is occupied length / total row length.
func (p *Placement) RowUtilization() float64 {
	used := 0.0
	for _, u := range p.rowUsed {
		used += u
	}
	return used / (float64(p.NumRows) * p.RowLen)
}

// global runs recursive min-cut bisection, assigning every live cell a
// (row, x) bin; legalize turns bins into abutted site positions.
func (p *Placement) global(ctx context.Context) error {
	n := p.N
	p.X = make([]float64, len(n.Cells))
	p.Row = make([]int32, len(n.Cells))
	for i := range p.Row {
		p.Row[i] = -1
	}
	var cells []netlist.CellID
	for ci := range n.Cells {
		if !n.Cells[ci].Dead {
			cells = append(cells, netlist.CellID(ci))
		}
	}
	b := newBisector(n)
	b.hCutDelta = p.Opt.Telemetry.Hist("place.fm_cut_delta")
	err := b.run(ctx, cells, region{r0: 0, r1: p.NumRows, x0: 0, x1: p.RowLen}, func(id netlist.CellID, reg region) {
		p.Row[id] = int32(reg.r0)
		p.X[id] = reg.x0
	})
	// The bisection is strictly serial, so the stats are plain ints,
	// flushed once — zero cost on the recursion itself.
	if sp := p.Opt.Telemetry; sp != nil {
		sp.Add("place.cells", int64(len(cells)))
		sp.Add("place.cuts", b.stats.cuts)
		sp.Add("place.fm_passes", b.stats.passes)
		sp.Add("place.fm_moves", b.stats.movesKept)
		sp.Add("place.fm_moves_tried", b.stats.movesTried)
	}
	return err
}

// legalize packs the cells of each row left to right in bin order,
// spreading overflow into neighbouring rows, and snaps to sites.
func (p *Placement) legalize() error {
	n := p.N
	lib := n.Lib
	rows := make([][]netlist.CellID, p.NumRows)
	for ci := range n.Cells {
		if n.Cells[ci].Dead {
			continue
		}
		r := p.Row[ci]
		if r < 0 {
			return fmt.Errorf("place: cell %s missed by global placement", n.Cells[ci].Name)
		}
		rows[r] = append(rows[r], netlist.CellID(ci))
	}
	// Spill overflow to the emptiest rows (nearest first) so that the
	// uniform row length never has to grow just because one bin came out
	// of bisection slightly heavy.
	free := make([]float64, p.NumRows)
	for r := range rows {
		free[r] = p.RowLen - width(n, rows[r])
	}
	for r := range rows {
		if free[r] >= 0 {
			continue
		}
		sort.SliceStable(rows[r], func(i, j int) bool { return p.X[rows[r][i]] < p.X[rows[r][j]] })
		for free[r] < 0 && len(rows[r]) > 0 {
			last := rows[r][len(rows[r])-1]
			w := n.Cells[last].Cell.Width
			tr := -1
			bestScore := math.Inf(1)
			for cand := range rows {
				if cand == r || free[cand] < w {
					continue
				}
				// Prefer nearby rows, then emptier ones.
				score := math.Abs(float64(cand-r)) - free[cand]/p.RowLen
				if score < bestScore {
					bestScore, tr = score, cand
				}
			}
			if tr < 0 {
				// Genuinely full everywhere: grow all rows.
				p.RowLen += w
				for i := range free {
					free[i] += w
				}
				break
			}
			rows[r] = rows[r][:len(rows[r])-1]
			rows[tr] = append(rows[tr], last)
			p.Row[last] = int32(tr)
			free[r] += w
			free[tr] -= w
		}
	}
	for r := range rows {
		sort.SliceStable(rows[r], func(i, j int) bool { return p.X[rows[r][i]] < p.X[rows[r][j]] })
		x := 0.0
		for _, id := range rows[r] {
			sx := math.Ceil(x/lib.SiteWidth) * lib.SiteWidth
			p.X[id] = sx
			p.Row[id] = int32(r)
			x = sx + n.Cells[id].Cell.Width
		}
		if x > p.RowLen {
			p.RowLen = math.Ceil(x/lib.SiteWidth) * lib.SiteWidth
		}
		p.rowUsed[r] = width(n, rows[r])
	}
	return nil
}

func width(n *netlist.Netlist, cells []netlist.CellID) float64 {
	w := 0.0
	for _, id := range cells {
		w += n.Cells[id].Cell.Width
	}
	return w
}

// HPWL returns the total half-perimeter wire length over all multi-pin
// nets, the standard placement quality metric and the router's lower
// bound.
func (p *Placement) HPWL() float64 {
	n := p.N
	csr := n.CSR()
	total := 0.0
	for id := range n.Nets {
		nn := &n.Nets[id]
		if nn.Dead || nn.Const >= 0 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		count := 0
		add := func(x, y float64) {
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
			count++
		}
		if nn.Driver != netlist.NoCell && p.Placed(nn.Driver) {
			add(p.Pos(nn.Driver))
		}
		for _, ld := range csr.Fanout(netlist.NetID(id)) {
			if ld.Cell != netlist.NoCell && p.Placed(ld.Cell) {
				add(p.Pos(ld.Cell))
			}
		}
		if count >= 2 {
			total += (maxX - minX) + (maxY - minY)
		}
	}
	return total
}
