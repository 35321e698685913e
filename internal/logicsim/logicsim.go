// Package logicsim holds the library's gate models and a levelized, 64-way
// bit-parallel logic simulator. EvalWords is the two-valued model over
// 64-pattern words, the workhorse of the fault simulator and of functional
// verification of DfT structures; Eval3 is the three-valued one that
// PODEM's planes, the SAT cube's justification and STA's case analysis
// share.
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
	var ins []uint64
	for _, ci := range s.Levels.Order {
		c := &s.N.Cells[ci]
		ins = ins[:0]
		for _, in := range c.Ins {
			ins = append(ins, s.Val[in])
		}
		s.Val[c.Out] = EvalWords(c.Cell.Kind, ins)
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

// EvalWords evaluates a cell kind over its input words, one pattern per
// bit: the two-valued gate model of the simulator and the fault simulator.
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

// Three-valued logic values: Eval3's inputs and output are 0, 1 or x.
const (
	v0 uint8 = 0
	v1 uint8 = 1
	x  uint8 = 2
)

// Eval3 evaluates a combinational cell kind over three-valued inputs (0,
// 1, or 2 for unknown). It is exact: the result is 0 or 1 exactly when
// every 0/1 completion of the unknown inputs gives that value. Every gate
// is read-once, so operator-wise evaluation is exact, except MUX2, whose
// select case is spelled out.
func Eval3(kind stdcell.Kind, in []uint8) uint8 {
	switch kind {
	case stdcell.KindInv:
		return not3(in[0])
	case stdcell.KindBuf:
		return in[0]
	case stdcell.KindAnd, stdcell.KindNand:
		r := and3n(in)
		if kind == stdcell.KindNand {
			return not3(r)
		}
		return r
	case stdcell.KindOr, stdcell.KindNor:
		r := or3n(in)
		if kind == stdcell.KindNor {
			return not3(r)
		}
		return r
	case stdcell.KindXor:
		return xor3(in[0], in[1])
	case stdcell.KindXnor:
		return not3(xor3(in[0], in[1]))
	case stdcell.KindAoi21:
		return not3(or3(and3(in[0], in[1]), in[2]))
	case stdcell.KindOai21:
		return not3(and3(or3(in[0], in[1]), in[2]))
	case stdcell.KindMux2:
		a, b, s := in[0], in[1], in[2]
		switch s {
		case v0:
			return a
		case v1:
			return b
		default:
			if a == b && a != x {
				return a
			}
			return x
		}
	}
	panic(fmt.Sprintf("logicsim: cannot evaluate %s kind", kind))
}

// Branch-free truth tables for the three-valued operators (indexed by
// v0/v1/x); measurably faster than the equivalent comparisons inside
// the PODEM event loop.
var (
	not3T = [3]uint8{v1, v0, x}
	and3T = [3][3]uint8{
		{v0, v0, v0},
		{v0, v1, x},
		{v0, x, x},
	}
	or3T = [3][3]uint8{
		{v0, v1, x},
		{v1, v1, v1},
		{x, v1, x},
	}
	xor3T = [3][3]uint8{
		{v0, v1, x},
		{v1, v0, x},
		{x, x, x},
	}
)

func not3(a uint8) uint8 { return not3T[a] }

func and3(a, b uint8) uint8 { return and3T[a][b] }

func xor3(a, b uint8) uint8 { return xor3T[a][b] }

func or3(a, b uint8) uint8 { return or3T[a][b] }

func and3n(in []uint8) uint8 {
	r := v1
	for _, v := range in {
		r = and3(r, v)
		if r == v0 {
			return v0
		}
	}
	return r
}

func or3n(in []uint8) uint8 {
	r := v0
	for _, v := range in {
		r = or3(r, v)
		if r == v1 {
			return v1
		}
	}
	return r
}
