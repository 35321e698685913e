package logicsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

func TestEvalWordsTruthTables(t *testing.T) {
	// Exhaustive over a=0/1, b=1/0 packed into two bit positions plus a
	// third input c covering all 8 combinations in the low 8 bits.
	const (
		a uint64 = 0xAA // 10101010
		b uint64 = 0xCC // 11001100
		c uint64 = 0xF0 // 11110000
	)
	const mask uint64 = 0xFF
	cases := []struct {
		kind stdcell.Kind
		in   []uint64
		want uint64
	}{
		{stdcell.KindInv, []uint64{a}, ^a & mask},
		{stdcell.KindBuf, []uint64{a}, a},
		{stdcell.KindNand, []uint64{a, b}, ^(a & b) & mask},
		{stdcell.KindNand, []uint64{a, b, c}, ^(a & b & c) & mask},
		{stdcell.KindNor, []uint64{a, b}, ^(a | b) & mask},
		{stdcell.KindAnd, []uint64{a, b, c}, a & b & c},
		{stdcell.KindOr, []uint64{a, b}, a | b},
		{stdcell.KindXor, []uint64{a, b}, a ^ b},
		{stdcell.KindXnor, []uint64{a, b}, ^(a ^ b) & mask},
		{stdcell.KindAoi21, []uint64{a, b, c}, ^((a & b) | c) & mask},
		{stdcell.KindOai21, []uint64{a, b, c}, ^((a | b) & c) & mask},
		{stdcell.KindMux2, []uint64{a, b, c}, (c & b) | (^c & a)}, // s=c
	}
	for _, tc := range cases {
		got := EvalWords(tc.kind, tc.in) & mask
		if got != tc.want {
			t.Errorf("%v: got %08b want %08b", tc.kind, got, tc.want)
		}
	}
}

// buildComb creates a two-level circuit: y = !( (a NAND b) AND c ).
func buildComb(t testing.TB) (*netlist.Netlist, [3]netlist.NetID, netlist.NetID) {
	t.Helper()
	lib := stdcell.Default()
	n := netlist.New("comb", lib)
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	n1 := n.AddNet("n1")
	n2 := n.AddNet("n2")
	y := n.AddNet("y")
	n.AddCell("g1", lib.MustCell("NAND2X1"), []netlist.NetID{a, b}, n1)
	n.AddCell("g2", lib.MustCell("AND2X1"), []netlist.NetID{n1, c}, n2)
	n.AddCell("g3", lib.MustCell("INVX1"), []netlist.NetID{n2}, y)
	n.AddPO("y", y)
	return n, [3]netlist.NetID{a, b, c}, y
}

func TestPropagateMatchesFormula(t *testing.T) {
	n, in, y := buildComb(t)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint64) bool {
		s.SetNet(in[0], a)
		s.SetNet(in[1], b)
		s.SetNet(in[2], c)
		s.Propagate()
		want := ^(^(a & b) & c)
		return s.Get(y) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConstNetsInitialized(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("k", lib)
	one := n.AddConst(1)
	zero := n.AddConst(0)
	a := n.AddPI("a")
	y := n.AddNet("y")
	n.AddCell("g", lib.MustCell("AND2X1"), []netlist.NetID{a, one}, y)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Get(one) != ^uint64(0) || s.Get(zero) != 0 {
		t.Fatal("constant nets not initialized")
	}
	s.SetNet(a, 0x1234)
	s.Propagate()
	if s.Get(y) != 0x1234 {
		t.Errorf("AND with const1 = %#x, want 0x1234", s.Get(y))
	}
}

// buildScanPair builds two scan flip-flops in a chain:
// si -> sff1 -> sff2, with functional inputs d1, d2.
func buildScanPair(t testing.TB) (n *netlist.Netlist, d1, d2, si, se, q1, q2 netlist.NetID) {
	t.Helper()
	lib := stdcell.Default()
	n = netlist.New("scanpair", lib)
	clk, dom := n.AddClockPI("clk", 10000)
	d1 = n.AddPI("d1")
	d2 = n.AddPI("d2")
	si = n.AddPI("si")
	se = n.AddPI("se")
	q1 = n.AddNet("q1")
	q2 = n.AddNet("q2")
	f1 := n.AddCell("sff1", lib.MustCell("SDFFX1"), []netlist.NetID{d1, si, se, clk}, q1)
	f2 := n.AddCell("sff2", lib.MustCell("SDFFX1"), []netlist.NetID{d2, q1, se, clk}, q2)
	n.Cells[f1].Domain = dom
	n.Cells[f2].Domain = dom
	n.AddPO("so", q2)
	return n, d1, d2, si, se, q1, q2
}

func TestScanShiftAndCapture(t *testing.T) {
	n, d1, d2, si, se, q1, q2 := buildScanPair(t)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	// Shift two values in: se=1.
	s.SetNet(se, ^uint64(0))
	s.SetNet(si, 0xF0F0)
	s.StepClock(-1)
	s.SetNet(si, 0x00FF)
	s.StepClock(-1)
	if s.Get(q1) != 0x00FF || s.Get(q2) != 0xF0F0 {
		t.Fatalf("after shift: q1=%#x q2=%#x", s.Get(q1), s.Get(q2))
	}
	// Capture: se=0 loads functional inputs.
	s.SetNet(se, 0)
	s.SetNet(d1, 0x1111)
	s.SetNet(d2, 0x2222)
	s.StepClock(-1)
	if s.Get(q1) != 0x1111 || s.Get(q2) != 0x2222 {
		t.Fatalf("after capture: q1=%#x q2=%#x", s.Get(q1), s.Get(q2))
	}
}

func TestStepClockRespectsDomain(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("two-dom", lib)
	clkA, domA := n.AddClockPI("clkA", 10000)
	clkB, domB := n.AddClockPI("clkB", 20000)
	dA := n.AddPI("dA")
	dB := n.AddPI("dB")
	qA := n.AddNet("qA")
	qB := n.AddNet("qB")
	fa := n.AddCell("ffA", lib.MustCell("DFFX1"), []netlist.NetID{dA, clkA}, qA)
	fb := n.AddCell("ffB", lib.MustCell("DFFX1"), []netlist.NetID{dB, clkB}, qB)
	n.Cells[fa].Domain = domA
	n.Cells[fb].Domain = domB
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	s.SetNet(dA, 0xA)
	s.SetNet(dB, 0xB)
	s.StepClock(domA)
	if s.Get(qA) != 0xA {
		t.Error("domain-A flop did not capture on its own clock")
	}
	if s.Get(qB) != 0 {
		t.Error("domain-B flop captured on domain-A clock")
	}
}

func TestRandomCircuitSimulatesDeterministically(t *testing.T) {
	// Random layered circuit; two fresh simulators must agree bit-exactly.
	lib := stdcell.Default()
	n := netlist.New("rand", lib)
	rng := rand.New(rand.NewSource(7))
	var nets []netlist.NetID
	for i := 0; i < 8; i++ {
		nets = append(nets, n.AddPI("pi"))
	}
	kinds := []string{"NAND2X1", "NOR2X1", "XOR2X1", "AND2X1", "OR2X1", "INVX1", "MUX2X1"}
	for i := 0; i < 120; i++ {
		cn := kinds[rng.Intn(len(kinds))]
		cell := lib.MustCell(cn)
		ins := make([]netlist.NetID, len(cell.Inputs))
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		out := n.AddNet("w")
		n.AddCell("g", cell, ins, out)
		nets = append(nets, out)
	}
	n.AddPO("y", nets[len(nets)-1])
	s1, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		for pi := 0; pi < 8; pi++ {
			w := rng.Uint64()
			s1.SetNet(n.PIs[pi].Net, w)
			s2.SetNet(n.PIs[pi].Net, w)
		}
		s1.Propagate()
		s2.Propagate()
		for id := range n.Nets {
			if s1.Get(netlist.NetID(id)) != s2.Get(netlist.NetID(id)) {
				t.Fatalf("trial %d: simulators diverge on net %d", trial, id)
			}
		}
	}
}

// gateShape is one (kind, input count) pair of the library's logic cells.
type gateShape struct {
	kind stdcell.Kind
	nin  int
}

// libraryShapes lists every gate shape of the default library's
// combinational cells, once each.
func libraryShapes() []gateShape {
	var shapes []gateShape
	seen := map[gateShape]bool{}
	for _, c := range stdcell.Default().Cells() {
		if c.Kind.IsSequential() || c.Kind.IsPhysicalOnly() {
			continue
		}
		if sh := (gateShape{c.Kind, len(c.Inputs)}); !seen[sh] {
			seen[sh] = true
			shapes = append(shapes, sh)
		}
	}
	return shapes
}

// TestEval3IsExact holds the three-valued gate model to the two-valued
// one on every library shape and every input in {0, 1, X}: on 0/1 inputs
// Eval3 is the bit EvalWords computes, and with X inputs it is 0 or 1
// exactly when every 0/1 completion of the X inputs gives that value.
// That exactness is what lets PODEM's tables, the SAT cube's justification
// and STA's case analysis share the one evaluator.
func TestEval3IsExact(t *testing.T) {
	shapes := libraryShapes()
	if len(shapes) == 0 {
		t.Fatal("library has no logic cells")
	}
	for _, sh := range shapes {
		in := make([]uint8, sh.nin)
		words := make([]uint64, sh.nin)
		total := 1
		for i := 0; i < sh.nin; i++ {
			total *= 3
		}
		for idx := 0; idx < total; idx++ {
			var xs []int
			for p, r := 0, idx; p < sh.nin; p, r = p+1, r/3 {
				in[p] = uint8(r % 3)
				if in[p] == x {
					xs = append(xs, p)
				}
			}
			// Every completion of the X inputs, one per bit of the words.
			for p := range words {
				words[p] = 0
			}
			for b := 0; b < 1<<len(xs); b++ {
				for p := range words {
					v := uint64(in[p])
					for k, xp := range xs {
						if xp == p {
							v = uint64(b>>k) & 1
						}
					}
					words[p] |= v << b
				}
			}
			mask := uint64(1)<<(1<<len(xs)) - 1
			want := x
			switch EvalWords(sh.kind, words) & mask {
			case 0:
				want = v0
			case mask:
				want = v1
			}
			if got := Eval3(sh.kind, in); got != want {
				t.Errorf("%v/%d on %v: Eval3 = %d, completions give %d", sh.kind, sh.nin, in, got, want)
			}
		}
	}
	t.Logf("%d gate shapes", len(shapes))
}
