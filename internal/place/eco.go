package place

import (
	"fmt"
	"math"
	"sort"

	"tpilayout/internal/netlist"
)

// ECO legalizes cells added to the netlist after the original placement
// (clock-tree buffers, scan-enable buffers), mirroring step 4 of the
// paper's flow: each new cell is placed in the free row space nearest the
// centroid of its placed neighbours; rows are extended when the core is
// full, which is how TPI pressure shows up as extra core area.
func (p *Placement) ECO() error {
	n := p.N
	// Grow the location arrays for cells added since placement.
	for len(p.X) < len(n.Cells) {
		p.X = append(p.X, 0)
		p.Row = append(p.Row, -1)
	}
	var pending []netlist.CellID
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if !c.Dead && p.Row[ci] < 0 && !c.Cell.Kind.IsPhysicalOnly() {
			pending = append(pending, netlist.CellID(ci))
		}
	}
	if len(pending) == 0 {
		return nil
	}
	gaps := p.buildGaps()
	csr := n.CSR()
	for _, id := range pending {
		cx, cy := p.centroid(id, csr)
		if !gaps.insert(p, id, cx, cy) {
			// No gap anywhere: extend every row by the cell width and
			// retry (the paper's "row length increases" effect).
			p.RowLen += n.Cells[id].Cell.Width + n.Lib.SiteWidth
			gaps.extend(p)
			if !gaps.insert(p, id, cx, cy) {
				return fmt.Errorf("place: ECO cannot place %s", n.Cells[id].Name)
			}
		}
	}
	return nil
}

// centroid estimates a new cell's ideal position from its placed
// neighbours (cells sharing a net), defaulting to the core center.
func (p *Placement) centroid(id netlist.CellID, csr *netlist.CSR) (x, y float64) {
	n := p.N
	sumX, sumY, cnt := 0.0, 0.0, 0
	visit := func(other netlist.CellID) {
		if other != netlist.NoCell && other != id && p.Placed(other) {
			ox, oy := p.Pos(other)
			sumX += ox
			sumY += oy
			cnt++
		}
	}
	c := &n.Cells[id]
	for _, in := range c.Ins {
		if in == netlist.NoNet {
			continue
		}
		visit(n.Nets[in].Driver)
	}
	if c.Out != netlist.NoNet {
		for _, ld := range csr.Fanout(c.Out) {
			visit(ld.Cell)
		}
	}
	if cnt == 0 {
		return p.CoreW() / 2, p.CoreH() / 2
	}
	return sumX / float64(cnt), sumY / float64(cnt)
}

// gapTable tracks free intervals per row for incremental insertion.
type gapTable struct {
	rows [][]gap // sorted by x
}

type gap struct{ x0, x1 float64 }

// buildGaps scans the current placement into free intervals.
func (p *Placement) buildGaps() *gapTable {
	n := p.N
	byRow := make([][]netlist.CellID, p.NumRows)
	for ci := range n.Cells {
		if !n.Cells[ci].Dead && p.Row[ci] >= 0 {
			byRow[p.Row[ci]] = append(byRow[p.Row[ci]], netlist.CellID(ci))
		}
	}
	g := &gapTable{rows: make([][]gap, p.NumRows)}
	for r := range byRow {
		cells := byRow[r]
		sort.Slice(cells, func(i, j int) bool { return p.X[cells[i]] < p.X[cells[j]] })
		x := 0.0
		for _, id := range cells {
			if p.X[id] > x {
				g.rows[r] = append(g.rows[r], gap{x0: x, x1: p.X[id]})
			}
			x = p.X[id] + n.Cells[id].Cell.Width
		}
		if x < p.RowLen {
			g.rows[r] = append(g.rows[r], gap{x0: x, x1: p.RowLen})
		}
	}
	return g
}

// extend appends the space created by a RowLen increase to every row: a
// row's last gap grows to the new end only if no cell lies after it;
// otherwise the row gains a gap from its last used x.
func (g *gapTable) extend(p *Placement) {
	lastUsed := make([]float64, len(g.rows))
	for ci := range p.N.Cells {
		if r := p.Row[ci]; !p.N.Cells[ci].Dead && r >= 0 {
			lastUsed[r] = math.Max(lastUsed[r], p.X[ci]+p.N.Cells[ci].Cell.Width)
		}
	}
	for r, row := range g.rows {
		if k := len(row); k > 0 && row[k-1].x1 >= lastUsed[r] {
			row[k-1].x1 = p.RowLen
		} else {
			g.rows[r] = append(row, gap{x0: lastUsed[r], x1: p.RowLen})
		}
	}
}

// insert places cell id in the gap whose usable position is nearest
// (cx, cy), site-aligned. Returns false if no gap fits.
func (g *gapTable) insert(p *Placement, id netlist.CellID, cx, cy float64) bool {
	n := p.N
	w := n.Cells[id].Cell.Width
	sw := n.Lib.SiteWidth
	rowH := n.Lib.RowHeight
	bestCost := math.Inf(1)
	bestRow, bestGap := -1, -1
	bestX := 0.0
	for r := range g.rows {
		dy := math.Abs((float64(r)+0.5)*rowH - cy)
		if dy >= bestCost {
			continue
		}
		for gi, gp := range g.rows[r] {
			// Closest x within the gap, snapped to a site.
			x := math.Min(math.Max(cx-w/2, gp.x0), gp.x1-w)
			x = math.Ceil(x/sw) * sw
			if x < gp.x0 || x+w > gp.x1+1e-9 {
				// Try the gap start as fallback.
				x = math.Ceil(gp.x0/sw) * sw
				if x+w > gp.x1+1e-9 {
					continue
				}
			}
			cost := dy + math.Abs(x+w/2-cx)
			if cost < bestCost {
				bestCost, bestRow, bestGap, bestX = cost, r, gi, x
			}
		}
	}
	if bestRow < 0 {
		return false
	}
	p.X[id] = bestX
	p.Row[id] = int32(bestRow)
	p.rowUsed[bestRow] += w
	// Split the chosen gap.
	gp := g.rows[bestRow][bestGap]
	repl := make([]gap, 0, 2)
	if bestX-gp.x0 > sw/2 {
		repl = append(repl, gap{x0: gp.x0, x1: bestX})
	}
	if gp.x1-(bestX+w) > sw/2 {
		repl = append(repl, gap{x0: bestX + w, x1: gp.x1})
	}
	row := g.rows[bestRow]
	row = append(row[:bestGap], append(repl, row[bestGap+1:]...)...)
	g.rows[bestRow] = row
	return true
}

// RemoveFillers kills all filler instances added by InsertFillers, so a
// design iteration can re-place the functional cells from scratch.
func (p *Placement) RemoveFillers() {
	for _, id := range p.FillerCells {
		p.N.KillCell(id)
	}
	p.FillerCells = nil
}

// InsertFillers plugs every remaining row gap with the widest fitting
// filler cells, keeping the power/ground strips continuous as the paper
// describes. It returns the total filler area in µm².
func (p *Placement) InsertFillers() float64 {
	n := p.N
	fillers := n.Lib.Fillers()
	if len(fillers) == 0 {
		return 0
	}
	minW := fillers[len(fillers)-1].Width
	gaps := p.buildGaps()
	total := 0.0
	for r := range gaps.rows {
		for _, gp := range gaps.rows[r] {
			x := math.Ceil(gp.x0/n.Lib.SiteWidth) * n.Lib.SiteWidth
			for gp.x1-x >= minW-1e-9 {
				placedOne := false
				for _, f := range fillers {
					if gp.x1-x >= f.Width-1e-9 {
						id := n.AddCell(fmt.Sprintf("fill_r%d_x%d", r, int(x)), f, nil, netlist.NoNet)
						n.Cells[id].Tag = netlist.TagFiller
						for len(p.X) < len(n.Cells) {
							p.X = append(p.X, 0)
							p.Row = append(p.Row, -1)
						}
						p.X[id] = x
						p.Row[id] = int32(r)
						p.FillerCells = append(p.FillerCells, id)
						total += f.Area()
						x += f.Width
						placedOne = true
						break
					}
				}
				if !placedOne {
					break
				}
			}
		}
	}
	return total
}
