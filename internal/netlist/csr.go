package netlist

// CSR is the flat compressed-sparse-row adjacency of a netlist: one
// contiguous loads array indexed by per-net offsets (fanout direction) and
// one contiguous input-net array indexed by per-cell offsets (fanin
// direction). Hot loops (fault propagation, PODEM, STA, placement) scan
// these arrays sequentially.
//
// A CSR is immutable once built; Netlist caches one per connectivity
// revision and Clone shares the cached pointer, so sweep levels cloned
// from a prewarmed base reuse the same arrays until their first edit.
type CSR struct {
	// FanoutIdx has len(Nets)+1 entries; the loads of net i are
	// FanoutLoads[FanoutIdx[i]:FanoutIdx[i+1]]: live cells by ascending
	// ID, pins in order, then primary outputs by ascending index. Fault
	// Load indices are defined against this order.
	FanoutIdx   []int32
	FanoutLoads []Load

	// FaninIdx has len(Cells)+1 entries; the input nets of cell c are
	// FaninNets[FaninIdx[c]:FaninIdx[c+1]], positionally aligned with
	// Instance.Ins (NoNet placeholders included, dead cells included).
	FaninIdx  []int32
	FaninNets []NetID
}

// Fanout returns the loads of one net.
func (c *CSR) Fanout(net NetID) []Load {
	return c.FanoutLoads[c.FanoutIdx[net]:c.FanoutIdx[net+1]]
}

// FanoutLen returns the number of loads of one net without materializing
// the slice header.
func (c *CSR) FanoutLen(net NetID) int {
	return int(c.FanoutIdx[net+1] - c.FanoutIdx[net])
}

// Fanin returns the input nets of one cell, aligned with Instance.Ins.
func (c *CSR) Fanin(cell CellID) []NetID {
	return c.FaninNets[c.FaninIdx[cell]:c.FaninIdx[cell+1]]
}

// CSR returns the flat adjacency of the netlist, rebuilding it only when
// the connectivity revision changed since the last build. The result must
// not be modified.
func (n *Netlist) CSR() *CSR {
	if n.csr != nil && n.csrRev == n.connRev {
		return n.csr
	}
	c := &CSR{FanoutIdx: make([]int32, len(n.Nets)+1)}

	// Counting pass. Offsets are accumulated in FanoutIdx[net+1] so the
	// prefix sum lands directly in place.
	pins := 0
	for ci := range n.Cells {
		cell := &n.Cells[ci]
		pins += len(cell.Ins)
		if cell.Dead {
			continue
		}
		for _, net := range cell.Ins {
			if net != NoNet {
				c.FanoutIdx[net+1]++
			}
		}
	}
	for pi := range n.POs {
		if net := n.POs[pi].Net; net != NoNet {
			c.FanoutIdx[net+1]++
		}
	}
	for i := 1; i <= len(n.Nets); i++ {
		c.FanoutIdx[i] += c.FanoutIdx[i-1]
	}

	// Fill pass: cells ascending with pins in order, then primary
	// outputs.
	c.FanoutLoads = make([]Load, c.FanoutIdx[len(n.Nets)])
	cursor := append([]int32(nil), c.FanoutIdx[:len(n.Nets)]...)
	for ci := range n.Cells {
		cell := &n.Cells[ci]
		if cell.Dead {
			continue
		}
		for pin, net := range cell.Ins {
			if net != NoNet {
				c.FanoutLoads[cursor[net]] = Load{Cell: CellID(ci), Pin: int32(pin), PO: -1}
				cursor[net]++
			}
		}
	}
	for pi := range n.POs {
		if net := n.POs[pi].Net; net != NoNet {
			c.FanoutLoads[cursor[net]] = Load{Cell: NoCell, Pin: -1, PO: int32(pi)}
			cursor[net]++
		}
	}

	// Fanin: a positional copy of every cell's Ins.
	c.FaninIdx = make([]int32, len(n.Cells)+1)
	c.FaninNets = make([]NetID, 0, pins)
	for ci := range n.Cells {
		c.FaninNets = append(c.FaninNets, n.Cells[ci].Ins...)
		c.FaninIdx[ci+1] = int32(len(c.FaninNets))
	}

	n.csr, n.csrRev = c, n.connRev
	return c
}
