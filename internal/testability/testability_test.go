package testability

import (
	"math"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// chainAnd builds: y = ((a AND b) AND c) AND d with a PO on y.
func chainAnd(t *testing.T) (*netlist.Netlist, []netlist.NetID, netlist.NetID) {
	t.Helper()
	lib := stdcell.Default()
	n := netlist.New("chain", lib)
	var pis []netlist.NetID
	for _, s := range []string{"a", "b", "c", "d"} {
		pis = append(pis, n.AddPI(s))
	}
	and2 := lib.MustCell("AND2X1")
	x1 := n.AddNet("x1")
	x2 := n.AddNet("x2")
	y := n.AddNet("y")
	n.AddCell("g1", and2, []netlist.NetID{pis[0], pis[1]}, x1)
	n.AddCell("g2", and2, []netlist.NetID{x1, pis[2]}, x2)
	n.AddCell("g3", and2, []netlist.NetID{x2, pis[3]}, y)
	n.AddPO("y", y)
	return n, pis, y
}

func TestSCOAPAndChain(t *testing.T) {
	n, pis, y := chainAnd(t)
	a, err := Analyze(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// CC1(y): all four inputs to 1: 1+1+1 (g1) +1 = ...
	// g1: CC1 = 1+1+1 = 3; g2: CC1 = 3+1+1 = 5; g3: CC1 = 5+1+1 = 7.
	if a.CC1[y] != 7 {
		t.Errorf("CC1(y) = %d, want 7", a.CC1[y])
	}
	// CC0(y): cheapest single 0: min(CC0(x2), CC0(d)) + 1; CC0(x2)=3, so 1+1=2 via d.
	if a.CC0[y] != 2 {
		t.Errorf("CC0(y) = %d, want 2", a.CC0[y])
	}
	// CO(a): through g1 (needs b=1), g2 (c=1), g3 (d=1): (0+1+1)+(1+1)+(1+1)=...
	// CO(x2)=0+CC1(d)+1=2; CO(x1)=2+CC1(c)+1=4; CO(a)=4+CC1(b)+1=6.
	if a.CO[pis[0]] != 6 {
		t.Errorf("CO(a) = %d, want 6", a.CO[pis[0]])
	}
	// COP: P1(y) = 1/16; Obs(a) = P1(b)*P1(c)*P1(d) = 1/8.
	if math.Abs(a.P1[y]-1.0/16) > 1e-12 {
		t.Errorf("P1(y) = %g, want 1/16", a.P1[y])
	}
	if math.Abs(a.Obs[pis[0]]-1.0/8) > 1e-12 {
		t.Errorf("Obs(a) = %g, want 1/8", a.Obs[pis[0]])
	}
	// Detection of y stuck-at-0 requires y=1: probability 1/16, 4 bits.
	if tc := a.TC(y); math.Abs(tc-4) > 1e-9 {
		t.Errorf("TC(y) = %g, want 4", tc)
	}
}

func TestSCOAPInverterAndSources(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("inv", lib)
	clk, dom := n.AddClockPI("clk", 1000)
	a := n.AddPI("a")
	y := n.AddNet("y")
	q := n.AddNet("q")
	n.AddCell("g", lib.MustCell("INVX1"), []netlist.NetID{a}, y)
	ff := n.AddCell("ff", lib.MustCell("DFFX1"), []netlist.NetID{y, clk}, q)
	n.Cells[ff].Domain = dom
	n.AddPO("q", q)
	an, err := Analyze(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.CC0[a] != 1 || an.CC1[a] != 1 {
		t.Errorf("PI controllability = (%d,%d), want (1,1)", an.CC0[a], an.CC1[a])
	}
	if an.CC0[q] != 1 || an.CC1[q] != 1 {
		t.Errorf("FF output controllability = (%d,%d), want (1,1) in full scan", an.CC0[q], an.CC1[q])
	}
	if an.CC0[y] != 2 || an.CC1[y] != 2 {
		t.Errorf("INV output CC = (%d,%d), want (2,2)", an.CC0[y], an.CC1[y])
	}
	// y feeds a flip-flop d pin: fully observable in scan.
	if an.CO[y] != 0 || an.Obs[y] != 1 {
		t.Errorf("FF d-input observability = (%d,%g), want (0,1)", an.CO[y], an.Obs[y])
	}
}

func TestConstraintsForceValues(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("c", lib)
	a := n.AddPI("a")
	se := n.AddPI("se")
	y := n.AddNet("y")
	n.AddCell("g", lib.MustCell("AND2X1"), []netlist.NetID{a, se}, y)
	n.AddPO("y", y)
	an, err := Analyze(n, Options{Constraints: map[netlist.NetID]int8{se: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if an.P1[y] != 0 {
		t.Errorf("P1(y) = %g with se=0, want 0", an.P1[y])
	}
	if an.CC1[y] < Inf {
		t.Errorf("CC1(y) = %d with se=0, want Inf", an.CC1[y])
	}
	// a is unobservable through a gate held off.
	if an.Obs[a] != 0 {
		t.Errorf("Obs(a) = %g with se=0, want 0", an.Obs[a])
	}
}

// TestCOPMatchesExhaustiveSimulation cross-checks COP P1 against exact
// signal probabilities from exhaustive 64-pattern simulation on a
// fanout-free circuit (COP is exact without reconvergence).
func TestCOPMatchesExhaustiveSimulation(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("tree", lib)
	var pis []netlist.NetID
	for i := 0; i < 6; i++ {
		pis = append(pis, n.AddPI("p"))
	}
	w1 := n.AddNet("w1")
	w2 := n.AddNet("w2")
	w3 := n.AddNet("w3")
	w4 := n.AddNet("w4")
	y := n.AddNet("y")
	n.AddCell("g1", lib.MustCell("NAND2X1"), []netlist.NetID{pis[0], pis[1]}, w1)
	n.AddCell("g2", lib.MustCell("NOR2X1"), []netlist.NetID{pis[2], pis[3]}, w2)
	n.AddCell("g3", lib.MustCell("XOR2X1"), []netlist.NetID{pis[4], pis[5]}, w3)
	n.AddCell("g4", lib.MustCell("OAI21X1"), []netlist.NetID{w1, w2, w3}, w4)
	n.AddCell("g5", lib.MustCell("INVX1"), []netlist.NetID{w4}, y)
	n.AddPO("y", y)

	an, err := Analyze(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := logicsim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	// All 64 combinations of 6 inputs in one word.
	for i, pi := range pis {
		var w uint64
		for v := 0; v < 64; v++ {
			if v>>i&1 == 1 {
				w |= 1 << v
			}
		}
		s.SetNet(pi, w)
	}
	s.Propagate()
	for _, net := range []netlist.NetID{w1, w2, w3, w4, y} {
		ones := 0
		w := s.Get(net)
		for v := 0; v < 64; v++ {
			if w>>v&1 == 1 {
				ones++
			}
		}
		exact := float64(ones) / 64
		if math.Abs(an.P1[net]-exact) > 1e-9 {
			t.Errorf("net %s: COP P1 = %g, exact %g", n.Nets[net].Name, an.P1[net], exact)
		}
	}
}

func TestFanoutFreeCones(t *testing.T) {
	// a -> inv -> w -> {and g2, or g3}: w is a stem, so the cones of x and
	// y stop at it. g2 and the inverter after it are one cone.
	lib := stdcell.Default()
	n := netlist.New("ffr", lib)
	a := n.AddPI("a")
	b := n.AddPI("b")
	w := n.AddNet("w")
	x := n.AddNet("x")
	y := n.AddNet("y")
	z := n.AddNet("z")
	n.AddCell("g1", lib.MustCell("INVX1"), []netlist.NetID{a}, w)
	n.AddCell("g2", lib.MustCell("AND2X1"), []netlist.NetID{w, b}, x)
	n.AddCell("g3", lib.MustCell("OR2X1"), []netlist.NetID{w, b}, y)
	n.AddCell("g4", lib.MustCell("INVX1"), []netlist.NetID{x}, z)
	n.AddPO("z", z)
	n.AddPO("y", y)
	an, err := Analyze(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		net  netlist.NetID
		want int32
	}{{w, 1}, {x, 1}, {y, 1}, {z, 2}, {a, 0}} {
		if got := an.FFICone[tc.net]; got != tc.want {
			t.Errorf("FFICone(%s) = %d, want %d", n.Nets[tc.net].Name, got, tc.want)
		}
	}
}

func TestHardConesAreHard(t *testing.T) {
	// The generator's hard cones must actually produce nets with high TC,
	// otherwise the TPI experiments are meaningless.
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.03), lib)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for id := range n.Nets {
		if tc := an.TC(netlist.NetID(id)); tc > worst && n.Nets[id].Driver != netlist.NoCell {
			worst = tc
		}
	}
	if worst < 10 {
		t.Errorf("hardest net TC = %.1f, want ≥ 10 (random-resistant cones missing?)", worst)
	}
}
