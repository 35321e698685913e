// Package fault models the single-stuck-at fault universe of a netlist,
// structural equivalence collapsing, and per-fault status bookkeeping for
// ATPG and fault simulation. Fault counts, coverage (FC) and efficiency
// (FE) reported in the paper's Table 1 are computed here.
package fault

import (
	"fmt"

	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// A Fault is a single stuck-at fault at a circuit node.
//
// Sites are expressed against nets: Load == StemLoad places the fault on
// the net's driver output (the stem, which includes primary inputs);
// Load >= 0 places it on the branch feeding the Load-th sink of the net
// (a cell input pin or a primary output), using the net's fanout order.
type Fault struct {
	Net  netlist.NetID
	Load int32
	SA   int8 // stuck-at value, 0 or 1
}

// StemLoad marks a stem (driver-side) fault site.
const StemLoad int32 = -1

// Status describes what is known about a fault class.
type Status uint8

// Fault statuses.
const (
	Undetected Status = iota
	Detected          // detected by a generated (or simulated) pattern
	Untestable        // proven redundant by exhaustive ATPG search
	Aborted           // ATPG gave up (backtrack limit)
	ScanCredit        // covered by scan shift / flush tests (DfT infrastructure)
)

func (s Status) String() string {
	switch s {
	case Undetected:
		return "undetected"
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	case ScanCredit:
		return "scan-credit"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Set is a fault universe over one netlist, with its equivalence classes.
// The universe is uncollapsed (it enumerates every pin and stem fault,
// the "total number of stuck-at faults" a tool reports); Rep maps each
// fault to its equivalence-class representative, which is what ATPG and
// fault simulation iterate over.
type Set struct {
	N      *netlist.Netlist
	Faults []Fault
	Rep    []int32  // fault index -> representative fault index
	status []Status // per representative (entries for non-reps unused)

	classReps []int32 // sorted unique representatives
}

// NewUniverse enumerates all stuck-at faults of the live logic in n and
// collapses structural equivalences. The netlist must not
// be edited while the Set is in use (fanout order defines Load indices).
func NewUniverse(n *netlist.Netlist) *Set {
	s := &Set{N: n}
	csr := n.CSR()
	// Index of the stem fault pair per net, for collapsing.
	stemIdx := make([]int32, len(n.Nets))
	for i := range stemIdx {
		stemIdx[i] = -1
	}
	add := func(net netlist.NetID, load int32) int32 {
		i := int32(len(s.Faults))
		s.Faults = append(s.Faults, Fault{Net: net, Load: load, SA: 0})
		s.Faults = append(s.Faults, Fault{Net: net, Load: load, SA: 1})
		return i
	}
	// Branch fault pair index per cell input pin, addressed through the
	// CSR fanin layout (FaninIdx[cell]+pin), -1 when absent.
	branchIdx := make([]int32, len(csr.FaninNets))
	for i := range branchIdx {
		branchIdx[i] = -1
	}
	branchOf := func(cell netlist.CellID, pin int) int32 {
		return branchIdx[csr.FaninIdx[cell]+int32(pin)]
	}
	for id := range n.Nets {
		net := netlist.NetID(id)
		nn := &n.Nets[id]
		if nn.Dead || nn.Const >= 0 {
			continue
		}
		if nn.Driver == netlist.NoCell && nn.PI < 0 {
			continue // dangling
		}
		if nn.PI >= 0 && n.PIs[nn.PI].Clock {
			continue // no stuck-at faults modeled on clock roots
		}
		if nn.Driver != netlist.NoCell && n.Cells[nn.Driver].Cell.Kind.IsPhysicalOnly() {
			continue
		}
		stemIdx[id] = add(net, StemLoad)
		for li, ld := range csr.Fanout(net) {
			if ld.Cell != netlist.NoCell {
				c := &n.Cells[ld.Cell]
				if c.Cell.Kind.IsPhysicalOnly() || c.Cell.Inputs[ld.Pin].Clock {
					continue
				}
				branchIdx[csr.FaninIdx[ld.Cell]+int32(ld.Pin)] = add(net, int32(li))
			} else {
				add(net, int32(li)) // primary-output branch
			}
		}
	}

	// Union-find for equivalence collapsing.
	parent := make([]int32, len(s.Faults))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}

	// Rule 1: single-load nets — the branch is electrically the stem.
	for id := range n.Nets {
		net := netlist.NetID(id)
		if stemIdx[id] < 0 || csr.FanoutLen(net) != 1 {
			continue
		}
		ld := csr.Fanout(net)[0]
		if ld.Cell != netlist.NoCell {
			if bi := branchOf(ld.Cell, int(ld.Pin)); bi >= 0 {
				union(stemIdx[id], bi)
				union(stemIdx[id]+1, bi+1)
			}
		} else {
			// PO branch fault index directly follows the stem pair.
			union(stemIdx[id], stemIdx[id]+2)
			union(stemIdx[id]+1, stemIdx[id]+3)
		}
	}

	// Rule 2: gate input/output equivalences.
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead || c.Out == netlist.NoNet {
			continue
		}
		oi := stemIdx[c.Out]
		if oi < 0 {
			continue
		}
		out0, out1 := oi, oi+1
		inF := func(pin int, sa int8) (int32, bool) {
			bi := branchOf(netlist.CellID(ci), pin)
			if bi < 0 {
				return 0, false
			}
			return bi + int32(sa), true
		}
		switch c.Cell.Kind {
		case stdcell.KindBuf:
			for pin := range c.Ins {
				if f, ok := inF(pin, 0); ok {
					union(f, out0)
				}
				if f, ok := inF(pin, 1); ok {
					union(f, out1)
				}
			}
		case stdcell.KindInv:
			for pin := range c.Ins {
				if f, ok := inF(pin, 0); ok {
					union(f, out1)
				}
				if f, ok := inF(pin, 1); ok {
					union(f, out0)
				}
			}
		case stdcell.KindAnd: // input sa0 ≡ output sa0
			for pin := range c.Ins {
				if f, ok := inF(pin, 0); ok {
					union(f, out0)
				}
			}
		case stdcell.KindNand: // input sa0 ≡ output sa1
			for pin := range c.Ins {
				if f, ok := inF(pin, 0); ok {
					union(f, out1)
				}
			}
		case stdcell.KindOr: // input sa1 ≡ output sa1
			for pin := range c.Ins {
				if f, ok := inF(pin, 1); ok {
					union(f, out1)
				}
			}
		case stdcell.KindNor: // input sa1 ≡ output sa0
			for pin := range c.Ins {
				if f, ok := inF(pin, 1); ok {
					union(f, out0)
				}
			}
		}
	}

	s.Rep = make([]int32, len(s.Faults))
	for i := range s.Rep {
		s.Rep[i] = find(int32(i))
	}
	s.status = make([]Status, len(s.Faults))
	// Union keeps the minimum index as root, so a fault is its class's
	// representative exactly when Rep[i] == i, and ascending index order
	// matches the first-seen order the rest of the pipeline depends on.
	for i := range s.Rep {
		if s.Rep[i] == int32(i) {
			s.classReps = append(s.classReps, int32(i))
		}
	}
	return s
}

// Total is the uncollapsed fault count — the paper's "#faults" column.
func (s *Set) Total() int { return len(s.Faults) }

// NumClasses is the equivalence-collapsed fault-class count.
func (s *Set) NumClasses() int { return len(s.classReps) }

// Reps returns the representative fault indices in deterministic order.
func (s *Set) Reps() []int32 { return s.classReps }

// Status returns the status of the fault's equivalence class.
func (s *Set) Status(i int32) Status { return s.status[s.Rep[i]] }

// SetStatus sets the status of fault i's whole equivalence class.
func (s *Set) SetStatus(i int32, st Status) { s.status[s.Rep[i]] = st }

// Counts tallies the uncollapsed universe by status.
func (s *Set) Counts() map[Status]int {
	out := make(map[Status]int)
	for i := range s.Faults {
		out[s.Status(int32(i))]++
	}
	return out
}

// Coverage returns fault coverage FC = detected / total and fault
// efficiency FE = (detected + untestable) / total, both over the
// uncollapsed universe, as fractions in [0,1]. Scan-credited faults count
// as detected (they are covered by the shift and flush tests).
func (s *Set) Coverage() (fc, fe float64) {
	c := s.Counts()
	det := c[Detected] + c[ScanCredit]
	tot := s.Total()
	if tot == 0 {
		return 0, 0
	}
	return float64(det) / float64(tot), float64(det+c[Untestable]) / float64(tot)
}

// CreditScan marks every fault matched by pred that capture patterns do
// not detect — undetected, aborted, or proven untestable in capture mode —
// as covered by the scan shift/flush tests. It returns the number of
// classes credited.
func (s *Set) CreditScan(pred func(Fault) bool) int {
	n := 0
	for _, r := range s.classReps {
		if s.status[r] == Detected || s.status[r] == ScanCredit {
			continue
		}
		if pred(s.Faults[r]) {
			s.status[r] = ScanCredit
			n++
		}
	}
	return n
}
