// Package logicsim is a levelized, 64-way bit-parallel logic simulator.
// Each net carries a 64-bit word, so one propagation pass evaluates 64
// input patterns at once — the workhorse representation for the fault
// simulator and for functional verification of DfT structures.
package logicsim

import (
	"fmt"

	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// Sim simulates one netlist. The zero value is not usable; call New.
type Sim struct {
	N      *netlist.Netlist
	Levels *netlist.Levels
	// Val[net] holds 64 parallel pattern values for the net.
	Val []uint64
}

// New builds a simulator for n. The netlist must be combinationally
// acyclic.
func New(n *netlist.Netlist) (*Sim, error) {
	lv, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	s := &Sim{N: n, Levels: lv, Val: make([]uint64, len(n.Nets))}
	for i := range n.Nets {
		if n.Nets[i].Const == 1 {
			s.Val[i] = ^uint64(0)
		}
	}
	return s, nil
}

// SetNet assigns a 64-pattern word to a net (a PI or flip-flop output).
func (s *Sim) SetNet(id netlist.NetID, w uint64) { s.Val[id] = w }

// Get returns the current word on a net.
func (s *Sim) Get(id netlist.NetID) uint64 { return s.Val[id] }

// Propagate evaluates every combinational cell in levelized order. Source
// nets (PIs, flip-flop outputs, constants) keep their current values.
func (s *Sim) Propagate() {
	for _, ci := range s.Levels.Order {
		c := &s.N.Cells[ci]
		s.Val[c.Out] = EvalNets(c.Cell.Kind, c.Ins, s.Val)
	}
}

// StepClock advances all flip-flops of the given clock domain by one clock
// edge (all domains when domain < 0): combinational logic is settled
// first, the flops capture, and the logic settles again. Scan flip-flops
// honor their se/si pins, so scan shifting works by setting the scan-enable
// net and stepping.
func (s *Sim) StepClock(domain int) {
	s.Propagate()
	next := make(map[netlist.NetID]uint64)
	for _, ci := range s.N.FlipFlops() {
		c := &s.N.Cells[ci]
		if domain >= 0 && c.Domain != domain {
			continue
		}
		next[c.Out] = s.ffNext(c)
	}
	for net, w := range next {
		s.Val[net] = w
	}
	s.Propagate()
}

// ffNext computes the next-state word of a flip-flop from current net
// values.
func (s *Sim) ffNext(c *netlist.Instance) uint64 {
	switch c.Cell.Kind {
	case stdcell.KindDff:
		return s.Val[c.Ins[c.Cell.FindInput("d")]]
	case stdcell.KindSdff:
		d := s.Val[c.Ins[c.Cell.FindInput("d")]]
		si := s.Val[c.Ins[c.Cell.FindInput("si")]]
		se := s.Val[c.Ins[c.Cell.FindInput("se")]]
		return (se & si) | (^se & d)
	}
	panic(fmt.Sprintf("logicsim: not a flip-flop: %s", c.Cell.Name))
}

// EvalNets evaluates a cell kind whose input nets are given as a flat
// NetID slice (an Instance's Ins or a CSR fanin row) against a net-value
// array.
func EvalNets(kind stdcell.Kind, ins []netlist.NetID, val []uint64) uint64 {
	switch kind {
	case stdcell.KindInv:
		return ^val[ins[0]]
	case stdcell.KindBuf:
		return val[ins[0]]
	case stdcell.KindNand:
		w := ^uint64(0)
		for _, in := range ins {
			w &= val[in]
		}
		return ^w
	case stdcell.KindNor:
		w := uint64(0)
		for _, in := range ins {
			w |= val[in]
		}
		return ^w
	case stdcell.KindAnd:
		w := ^uint64(0)
		for _, in := range ins {
			w &= val[in]
		}
		return w
	case stdcell.KindOr:
		w := uint64(0)
		for _, in := range ins {
			w |= val[in]
		}
		return w
	case stdcell.KindXor:
		return val[ins[0]] ^ val[ins[1]]
	case stdcell.KindXnor:
		return ^(val[ins[0]] ^ val[ins[1]])
	case stdcell.KindAoi21:
		return ^((val[ins[0]] & val[ins[1]]) | val[ins[2]])
	case stdcell.KindOai21:
		return ^((val[ins[0]] | val[ins[1]]) & val[ins[2]])
	case stdcell.KindMux2:
		a, b, sel := val[ins[0]], val[ins[1]], val[ins[2]]
		return (sel & b) | (^sel & a)
	}
	panic(fmt.Sprintf("logicsim: cannot evaluate %s kind", kind))
}

// EvalWords evaluates a cell kind over explicit input words, used by unit
// tests and by fault injection on input pins.
func EvalWords(kind stdcell.Kind, in []uint64) uint64 {
	switch kind {
	case stdcell.KindInv:
		return ^in[0]
	case stdcell.KindBuf:
		return in[0]
	case stdcell.KindNand:
		w := ^uint64(0)
		for _, x := range in {
			w &= x
		}
		return ^w
	case stdcell.KindNor:
		w := uint64(0)
		for _, x := range in {
			w |= x
		}
		return ^w
	case stdcell.KindAnd:
		w := ^uint64(0)
		for _, x := range in {
			w &= x
		}
		return w
	case stdcell.KindOr:
		w := uint64(0)
		for _, x := range in {
			w |= x
		}
		return w
	case stdcell.KindXor:
		return in[0] ^ in[1]
	case stdcell.KindXnor:
		return ^(in[0] ^ in[1])
	case stdcell.KindAoi21:
		return ^((in[0] & in[1]) | in[2])
	case stdcell.KindOai21:
		return ^((in[0] | in[1]) & in[2])
	case stdcell.KindMux2:
		return (in[2] & in[1]) | (^in[2] & in[0])
	}
	panic(fmt.Sprintf("logicsim: cannot evaluate %s kind", kind))
}
