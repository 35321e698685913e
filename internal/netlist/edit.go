package netlist

import (
	"fmt"
	"slices"
)

// Structural editing operations. These are the primitives that DfT
// insertion (test points, scan, buffering) and ECO passes are built from.

// SwapCell replaces instance id's library cell with newCell (e.g. DFF →
// scan DFF during scan insertion, or a drive-strength upgrade during
// timing fixes). Input pins are re-associated by name; pins that exist
// only in newCell must be supplied in extra (pin name → net). The output
// connection is preserved.
func (n *Netlist) SwapCell(id CellID, newCellName string, extra map[string]NetID) error {
	inst := &n.Cells[id]
	nc := n.Lib.Cell(newCellName)
	if nc == nil {
		return fmt.Errorf("netlist: no library cell %q", newCellName)
	}
	ins := make([]NetID, len(nc.Inputs))
	for i := range ins {
		ins[i] = NoNet
	}
	for oldPin, net := range inst.Ins {
		name := inst.Cell.Inputs[oldPin].Name
		if j := nc.FindInput(name); j >= 0 {
			ins[j] = net
		}
	}
	for name, net := range extra {
		j := nc.FindInput(name)
		if j < 0 {
			return fmt.Errorf("netlist: cell %s has no pin %q", newCellName, name)
		}
		ins[j] = net
	}
	for i, net := range ins {
		if net == NoNet {
			return fmt.Errorf("netlist: %s→%s leaves pin %q unconnected",
				inst.Cell.Name, newCellName, nc.Inputs[i].Name)
		}
	}
	// A swap to a same-kind variant with an identical pin→net mapping
	// (the drive-strength upgrades of timing optimization) changes only
	// cell attributes: adjacency and levelization stay valid.
	if nc.Kind != inst.Cell.Kind || !slices.Equal(ins, inst.Ins) {
		n.connRev++
	}
	inst.Cell = nc
	inst.Ins = ins
	return nil
}

// MoveLoads reconnects the given sinks of net from onto net to. Sinks not
// currently on from are ignored. Primary-output loads are moved too when
// included in loads.
func (n *Netlist) MoveLoads(from, to NetID, loads []Load) {
	n.connRev++
	for _, ld := range loads {
		if ld.Cell != NoCell {
			if n.Cells[ld.Cell].Ins[ld.Pin] == from {
				n.Cells[ld.Cell].Ins[ld.Pin] = to
			}
			continue
		}
		if ld.PO >= 0 && n.POs[ld.PO].Net == from {
			n.POs[ld.PO].Net = to
		}
	}
}

// InsertOnNet inserts a single-input cell (buffer/inverter style: first
// input is the pass-through) in series on net: the new cell's input is net,
// its output is a fresh net, and the given loads (or all loads when loads
// is nil) move to the fresh net. It returns the new cell and net.
func (n *Netlist) InsertOnNet(name, cellName string, net NetID, loads []Load) (CellID, NetID) {
	if loads == nil {
		loads = append([]Load(nil), n.CSR().Fanout(net)...)
	}
	out := n.AddNet(name + "_n")
	cell := n.Lib.MustCell(cellName)
	ins := make([]NetID, len(cell.Inputs))
	ins[0] = net
	for i := 1; i < len(ins); i++ {
		ins[i] = NoNet
	}
	id := n.AddCell(name, cell, ins, out)
	n.MoveLoads(net, out, loads)
	return id, out
}

// SetInput rewires a single input pin of a cell to a different net.
func (n *Netlist) SetInput(id CellID, pin int, net NetID) {
	n.connRev++
	n.Cells[id].Ins[pin] = net
}

// KillCell marks an instance dead and releases its output net's driver.
func (n *Netlist) KillCell(id CellID) {
	n.connRev++
	inst := &n.Cells[id]
	inst.Dead = true
	if inst.Out != NoNet && n.Nets[inst.Out].Driver == id {
		n.Nets[inst.Out].Driver = NoCell
	}
}

// Validate checks the structural invariants every pass relies on:
// each live cell input is connected to a live net with a source (driver,
// PI, or constant); each driven net's driver is live and points back; each
// sequential cell has a clock domain; the combinational core is acyclic.
func (n *Netlist) Validate() error {
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead {
			continue
		}
		for pin, net := range c.Ins {
			if net == NoNet {
				return fmt.Errorf("cell %s pin %s unconnected", c.Name, c.Cell.Inputs[pin].Name)
			}
			nn := &n.Nets[net]
			if nn.Dead {
				return fmt.Errorf("cell %s pin %s on dead net %s", c.Name, c.Cell.Inputs[pin].Name, nn.Name)
			}
			if nn.Driver == NoCell && nn.PI < 0 && nn.Const < 0 {
				return fmt.Errorf("net %s (input of %s) has no source", nn.Name, c.Name)
			}
		}
		if c.Out != NoNet && n.Nets[c.Out].Driver != CellID(ci) {
			return fmt.Errorf("cell %s output net %s driver mismatch", c.Name, n.Nets[c.Out].Name)
		}
		if c.Cell.Kind.IsSequential() && (c.Domain < 0 || c.Domain >= len(n.Domains)) {
			return fmt.Errorf("sequential cell %s has no clock domain", c.Name)
		}
	}
	for i := range n.Nets {
		nn := &n.Nets[i]
		if nn.Dead || nn.Driver == NoCell {
			continue
		}
		if n.Cells[nn.Driver].Dead {
			return fmt.Errorf("net %s driven by dead cell", nn.Name)
		}
		if n.Cells[nn.Driver].Out != NetID(i) {
			return fmt.Errorf("net %s driver back-pointer mismatch", nn.Name)
		}
	}
	if _, err := n.Levelize(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the netlist (sharing the immutable
// library). Derived-structure caches (CSR, levelization) are
// immutable per connectivity revision, so the clone shares the cached
// pointers: a sweep level cloned from a prewarmed base circuit pays no
// rebuild until its first connectivity edit.
//
// The copy is packed: Cells and Nets have no spare capacity, and every
// cell's Ins is a window of one shared pin array, capped at its own
// length so that an append reallocates rather than overwriting the next
// cell's pins.
func (n *Netlist) Clone() *Netlist {
	out := &Netlist{
		Name:    n.Name,
		Lib:     n.Lib,
		Cells:   make([]Instance, len(n.Cells)),
		Nets:    make([]Net, len(n.Nets)),
		PIs:     append([]Port(nil), n.PIs...),
		POs:     append([]Port(nil), n.POs...),
		Domains: append([]Domain(nil), n.Domains...),

		connRev:   n.connRev,
		csr:       n.csr,
		csrRev:    n.csrRev,
		levels:    n.levels,
		levelsRev: n.levelsRev,
	}
	copy(out.Cells, n.Cells)
	copy(out.Nets, n.Nets)
	pins := 0
	for i := range n.Cells {
		pins += len(n.Cells[i].Ins)
	}
	arena := make([]NetID, pins)
	a := 0
	for i := range out.Cells {
		c := &out.Cells[i]
		if len(c.Ins) == 0 {
			c.Ins = nil
			continue
		}
		b := a + copy(arena[a:], c.Ins)
		c.Ins = arena[a:b:b]
		a = b
	}
	return out
}
