package netlist

import "fmt"

// Levels is the levelized (topologically ordered) view of the
// combinational core of a netlist. Sequential cell outputs and primary
// inputs act as sources; sequential cell inputs and primary outputs act as
// sinks. Every analysis that sweeps the logic (simulation, SCOAP, COP,
// STA) iterates Order.
type Levels struct {
	// Order lists all live combinational cells in topological order.
	Order []CellID
	// CellLevel[c] is the logic depth of cell c (sources are depth 0);
	// -1 for sequential, physical-only, and dead cells.
	CellLevel []int32
	// NetLevel[n] is the depth at which net n becomes valid.
	NetLevel []int32
	// MaxLevel is the deepest combinational level.
	MaxLevel int
}

// Levelize computes the topological order of the combinational core. It
// returns an error naming a cell on a combinational cycle if one exists.
// The result is cached per connectivity revision (a same-kind SwapCell
// does not invalidate it) and must not be modified.
func (n *Netlist) Levelize() (*Levels, error) {
	if n.levels != nil && n.levelsRev == n.connRev {
		return n.levels, nil
	}
	lv, err := n.levelize()
	if err != nil {
		return nil, err
	}
	n.levels, n.levelsRev = lv, n.connRev
	return lv, nil
}

func (n *Netlist) levelize() (*Levels, error) {
	lv := &Levels{
		CellLevel: make([]int32, len(n.Cells)),
		NetLevel:  make([]int32, len(n.Nets)),
	}
	// Pending combinational input counts per cell.
	pend := make([]int32, len(n.Cells))
	var ready []CellID
	comb := 0
	for ci := range n.Cells {
		c := &n.Cells[ci]
		lv.CellLevel[ci] = -1
		if c.Dead || c.Cell.Kind.IsSequential() || c.Cell.Kind.IsPhysicalOnly() {
			continue
		}
		comb++
		cnt := int32(0)
		for _, net := range c.Ins {
			if net != NoNet && n.combDriven(net) {
				cnt++
			}
		}
		pend[ci] = cnt
		if cnt == 0 {
			ready = append(ready, CellID(ci))
		}
	}
	csr := n.CSR()
	lv.Order = make([]CellID, 0, comb)
	for len(ready) > 0 {
		ci := ready[0]
		ready = ready[1:]
		level := int32(0)
		c := &n.Cells[ci]
		for _, net := range c.Ins {
			if net != NoNet && lv.NetLevel[net] >= level {
				level = lv.NetLevel[net]
			}
		}
		level++
		lv.CellLevel[ci] = level
		if int(level) > lv.MaxLevel {
			lv.MaxLevel = int(level)
		}
		lv.Order = append(lv.Order, ci)
		if c.Out == NoNet {
			continue
		}
		lv.NetLevel[c.Out] = level
		for _, ld := range csr.Fanout(c.Out) {
			if ld.Cell == NoCell {
				continue
			}
			s := &n.Cells[ld.Cell]
			if s.Dead || s.Cell.Kind.IsSequential() || s.Cell.Kind.IsPhysicalOnly() {
				continue
			}
			if pend[ld.Cell]--; pend[ld.Cell] == 0 {
				ready = append(ready, ld.Cell)
			}
		}
	}
	if len(lv.Order) != comb {
		for ci := range n.Cells {
			c := &n.Cells[ci]
			if !c.Dead && !c.Cell.Kind.IsSequential() && !c.Cell.Kind.IsPhysicalOnly() &&
				lv.CellLevel[ci] < 0 {
				return nil, fmt.Errorf("netlist: combinational cycle through cell %s", c.Name)
			}
		}
		return nil, fmt.Errorf("netlist: combinational cycle (unlocatable)")
	}
	lv.sortOrder()
	return lv, nil
}

// sortOrder canonicalizes Order to (level, cell ID) via a counting sort.
// Every consumer of Order is a pure dataflow sweep (each cell's result
// depends only on already-computed fanin values), so any topological order
// yields identical analysis results; the canonical order makes them
// independent of the Kahn queue's visiting order too.
func (lv *Levels) sortOrder() {
	cnt := make([]int, lv.MaxLevel+2)
	total := 0
	for _, l := range lv.CellLevel {
		if l > 0 {
			cnt[l]++
			total++
		}
	}
	pos := make([]int, lv.MaxLevel+2)
	for l := 1; l <= lv.MaxLevel; l++ {
		pos[l+1] = pos[l] + cnt[l]
	}
	sorted := make([]CellID, total)
	// CellLevel is ID-indexed, so scanning it yields ID order per level.
	for ci, l := range lv.CellLevel {
		if l < 0 {
			continue
		}
		sorted[pos[l]] = CellID(ci)
		pos[l]++
	}
	lv.Order = sorted
}

// combDriven reports whether net's value is produced by a combinational
// cell (as opposed to a PI, constant, or flip-flop output).
func (n *Netlist) combDriven(net NetID) bool {
	d := n.Nets[net].Driver
	if d == NoCell {
		return false
	}
	k := n.Cells[d].Cell.Kind
	return !k.IsSequential() && !k.IsPhysicalOnly()
}
