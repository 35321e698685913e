// Package netlist provides the mapped gate-level netlist representation
// shared by every stage of the flow: DfT insertion edits it, placement and
// routing consume it, and ATPG/STA analyze it.
//
// A Netlist is a flat (non-hierarchical) network of standard-cell
// instances, primary inputs/outputs, and nets. Cells and nets are addressed
// by dense integer IDs so that analysis passes can use slices rather than
// maps and remain deterministic.
package netlist

import (
	"fmt"

	"tpilayout/internal/stdcell"
)

// CellID and NetID are dense indices into Netlist.Cells and Netlist.Nets.
type (
	CellID int32
	NetID  int32
)

// NoCell and NoNet are sentinel "absent" IDs.
const (
	NoCell CellID = -1
	NoNet  NetID  = -1
)

// Tag classifies an instance by its role in the design. Functional logic
// carries TagNone; DfT and physical-design passes tag the cells they add
// so that later stages (fault accounting, area reports, ECO) can tell
// them apart.
type Tag uint8

// Instance tags.
const (
	TagNone     Tag = iota
	TagTestMux      // multiplexer belonging to a TSFF test point
	TagScanFF       // flip-flop converted to / inserted as a scan element
	TagSEBuffer     // scan-enable distribution buffer
	TagClockBuf     // clock-tree buffer
	TagFiller       // row filler cell
	TagTimingBuf
)

// Instance is one placed-standard-cell instance.
//
// Fields are ordered widest first so the record packs into 64 bytes.
type Instance struct {
	Name string
	Cell *stdcell.Cell
	Ins  []NetID // aligned with Cell.Inputs

	// Domain is the clock-domain index for sequential cells, -1 otherwise.
	Domain int

	Out NetID // NoNet for physical-only cells
	Tag Tag

	// Dead marks an instance removed by an edit. Dead instances keep
	// their ID (so external tables stay aligned) but are skipped by all
	// iterations. Compact() squeezes them out.
	Dead bool
}

// Net is a single electrical node. Fields are ordered widest first so
// the record packs into 32 bytes.
type Net struct {
	Name string
	// PI is the index into Netlist.PIs when Driver == NoCell and the net
	// is a primary input, else -1.
	PI int
	// Driver is the driving cell, or NoCell when the net is driven by a
	// primary input (or is constant).
	Driver CellID
	// Const is 0 or 1 for constant nets (tie cells abstracted away), else -1.
	Const int8
	Dead  bool
}

// Port is a primary input or output of the design.
type Port struct {
	Name string
	Net  NetID
	// Clock marks a clock input; Domain is its clock-domain index.
	Clock  bool
	Domain int
}

// Domain describes one clock domain.
type Domain struct {
	Name     string
	PeriodPS float64 // target clock period used for reporting only
	ClockPI  int     // index into PIs of the domain's clock input
}

// Netlist is the complete design.
type Netlist struct {
	Name    string
	Lib     *stdcell.Library
	Cells   []Instance
	Nets    []Net
	PIs     []Port
	POs     []Port
	Domains []Domain

	// Derived graph data: connRev is the connectivity revision, bumped by
	// every edit primitive that changes the net↔pin graph (add, kill,
	// rewire) and by nothing else; csr and levels are rebuilt lazily
	// when their revision falls behind it. An edit that keeps the graph
	// intact (a same-kind drive-strength swap) bumps nothing, so STA and
	// placement iterations do not rebuild adjacency.
	connRev   uint64
	csr       *CSR
	csrRev    uint64
	levels    *Levels
	levelsRev uint64
}

// Load is one sink of a net: either pin Pin of cell Cell, or primary
// output PO (index into POs) when Cell == NoCell.
//
// Pin and PO are 32-bit so that a Load is 12 bytes: a cell has a handful
// of pins and a design far fewer than 2^31 outputs, and CellID is 32-bit
// already.
type Load struct {
	Cell CellID
	Pin  int32 // input pin index within the cell
	PO   int32 // index into POs, valid when Cell == NoCell
}

// New returns an empty netlist bound to a library.
func New(name string, lib *stdcell.Library) *Netlist {
	return &Netlist{Name: name, Lib: lib}
}

// AddNet creates a net with no driver and returns its ID.
func (n *Netlist) AddNet(name string) NetID {
	n.Nets = append(n.Nets, Net{Name: name, Driver: NoCell, PI: -1, Const: -1})
	n.connRev++
	return NetID(len(n.Nets) - 1)
}

// AddConst creates (or returns an existing) constant-0 or constant-1 net.
func (n *Netlist) AddConst(v int) NetID {
	for id := range n.Nets {
		if !n.Nets[id].Dead && n.Nets[id].Const == int8(v) {
			return NetID(id)
		}
	}
	id := n.AddNet(fmt.Sprintf("const%d", v))
	n.Nets[id].Const = int8(v)
	return id
}

// AddPI creates a primary input port and its net.
func (n *Netlist) AddPI(name string) NetID {
	id := n.AddNet(name)
	n.PIs = append(n.PIs, Port{Name: name, Net: id, Domain: -1})
	n.Nets[id].PI = len(n.PIs) - 1
	return id
}

// AddClockPI creates a clock input and registers a clock domain for it.
// period is the domain's target clock period in ps (reporting only).
func (n *Netlist) AddClockPI(name string, period float64) (NetID, int) {
	id := n.AddPI(name)
	pi := len(n.PIs) - 1
	n.PIs[pi].Clock = true
	n.Domains = append(n.Domains, Domain{Name: name, PeriodPS: period, ClockPI: pi})
	dom := len(n.Domains) - 1
	n.PIs[pi].Domain = dom
	return id, dom
}

// AddPO marks a net as a primary output.
func (n *Netlist) AddPO(name string, net NetID) {
	n.connRev++
	n.POs = append(n.POs, Port{Name: name, Net: net, Domain: -1})
}

// AddCell instantiates a library cell. ins must match len(cell.Inputs);
// out is the net driven by the cell (pass NoNet only for physical-only
// cells). It returns the new instance's ID.
func (n *Netlist) AddCell(name string, cell *stdcell.Cell, ins []NetID, out NetID) CellID {
	if len(ins) != len(cell.Inputs) {
		panic(fmt.Sprintf("netlist: cell %s (%s) given %d inputs, wants %d",
			name, cell.Name, len(ins), len(cell.Inputs)))
	}
	n.connRev++
	id := CellID(len(n.Cells))
	n.Cells = append(n.Cells, Instance{
		Name:   name,
		Cell:   cell,
		Ins:    append([]NetID(nil), ins...),
		Out:    out,
		Domain: -1,
	})
	if out != NoNet {
		if d := n.Nets[out].Driver; d != NoCell || n.Nets[out].PI >= 0 {
			panic(fmt.Sprintf("netlist: net %s already driven", n.Nets[out].Name))
		}
		n.Nets[out].Driver = id
	}
	return id
}

// Cell returns the instance for id.
func (n *Netlist) Cell(id CellID) *Instance { return &n.Cells[id] }

// Net returns the net for id.
func (n *Netlist) Net(id NetID) *Net { return &n.Nets[id] }

// Prewarm builds both derived-structure caches (CSR adjacency and
// levelization) so that subsequent Clones share them. Sweep uses it
// to pay the build cost once per base circuit instead of once per level.
// A combinational cycle leaves the levelization uncached; the error
// resurfaces at first real use.
func (n *Netlist) Prewarm() {
	n.CSR()
	n.Levelize() //nolint:errcheck // cycle errors resurface at first use
}

// NumLiveCells counts non-dead instances.
func (n *Netlist) NumLiveCells() int {
	c := 0
	for i := range n.Cells {
		if !n.Cells[i].Dead {
			c++
		}
	}
	return c
}

// NumFlipFlops counts live sequential instances.
func (n *Netlist) NumFlipFlops() int {
	c := 0
	for i := range n.Cells {
		if !n.Cells[i].Dead && n.Cells[i].Cell.Kind.IsSequential() {
			c++
		}
	}
	return c
}

// FlipFlops returns the IDs of all live sequential instances in ID order.
func (n *Netlist) FlipFlops() []CellID {
	var ffs []CellID
	for i := range n.Cells {
		if !n.Cells[i].Dead && n.Cells[i].Cell.Kind.IsSequential() {
			ffs = append(ffs, CellID(i))
		}
	}
	return ffs
}

// TotalCellArea sums the area of all live instances in µm².
func (n *Netlist) TotalCellArea() float64 {
	a := 0.0
	for i := range n.Cells {
		if !n.Cells[i].Dead {
			a += n.Cells[i].Cell.Area()
		}
	}
	return a
}
