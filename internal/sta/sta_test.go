package sta

import (
	"context"
	"math"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/extract"
	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/route"
	"tpilayout/internal/stdcell"
)

// ffPair builds: ff1.q -> INV -> ff2.d, one clock, no wire parasitics.
func ffPair(t testing.TB) (*netlist.Netlist, *extract.Parasitics) {
	t.Helper()
	lib := stdcell.Default()
	n := netlist.New("pair", lib)
	clk, dom := n.AddClockPI("clk", 10000)
	d0 := n.AddPI("d0")
	q1 := n.AddNet("q1")
	w := n.AddNet("w")
	q2 := n.AddNet("q2")
	f1 := n.AddCell("ff1", lib.MustCell("DFFX1"), []netlist.NetID{d0, clk}, q1)
	n.AddCell("inv", lib.MustCell("INVX1"), []netlist.NetID{q1}, w)
	f2 := n.AddCell("ff2", lib.MustCell("DFFX1"), []netlist.NetID{w, clk}, q2)
	n.Cells[f1].Domain = dom
	n.Cells[f2].Domain = dom
	n.AddPO("q2", q2)
	par := extract.Extract(n, nil)
	return n, par
}

func TestHandComputedPath(t *testing.T) {
	n, par := ffPair(t)
	res, err := AnalyzeContext(context.Background(), n, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.PerDomain[0]
	lib := n.Lib
	dff := lib.MustCell("DFFX1")
	inv := lib.MustCell("INVX1")
	// Loads: q1 drives inv.a (2 fF); w drives ff2.d (1.8 fF).
	dClk2Q, _ := dff.Delay.Lookup(40, 2.0)
	sQ, _ := dff.OutSlew.Lookup(40, 2.0)
	dInv, _ := inv.Delay.Lookup(sQ, 1.8)
	want := dClk2Q + dInv + dff.Setup
	if math.Abs(rep.Tcp-want) > 1e-9 {
		t.Errorf("Tcp = %.3f, hand computation %.3f", rep.Tcp, want)
	}
	if rep.TSkew != 0 {
		t.Errorf("skew %.3f on an unbuffered shared clock, want 0", rep.TSkew)
	}
	if rep.TWires != 0 {
		t.Errorf("wire delay %.3f with no parasitics", rep.TWires)
	}
	if rep.TSetup != dff.Setup {
		t.Errorf("setup %.3f, want %.3f", rep.TSetup, dff.Setup)
	}
	if got := rep.TIntrinsic + rep.TLoadDep; math.Abs(got-(dClk2Q+dInv)) > 1e-9 {
		t.Errorf("cell delay split %.3f, want %.3f", got, dClk2Q+dInv)
	}
	if len(rep.PathCells) != 2 { // launch flop + inverter
		t.Errorf("path cells = %d, want 2", len(rep.PathCells))
	}
	if rep.FmaxMHz <= 0 {
		t.Error("Fmax not computed")
	}
}

// piLaunch builds: d0 -> BUF -> BUF -> ff.d with ff clocked through a
// clock buffer, so the only timed path launches at a primary input and
// the capture clock arrives after 0.
func piLaunch(t testing.TB) (*netlist.Netlist, *extract.Parasitics) {
	t.Helper()
	lib := stdcell.Default()
	n := netlist.New("pilaunch", lib)
	clk, dom := n.AddClockPI("clk", 10000)
	clkb := n.AddNet("clkb")
	n.AddCell("cbuf", lib.MustCell("BUFX1"), []netlist.NetID{clk}, clkb)
	d := n.AddPI("d0")
	for i := 0; i < 2; i++ {
		_, d = n.InsertOnNet("buf", "BUFX1", d, []netlist.Load{})
	}
	q := n.AddNet("q")
	ff := n.AddCell("ff", lib.MustCell("DFFX1"), []netlist.NetID{d, clkb}, q)
	n.Cells[ff].Domain = dom
	n.AddPO("q", q)
	return n, extract.Extract(n, nil)
}

// layoutFixture places and routes a small generated circuit.
func layoutFixture(t testing.TB) (*netlist.Netlist, *extract.Parasitics) {
	t.Helper()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.03), stdcell.Default())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.PlaceContext(context.Background(), n, place.Options{TargetUtilization: 0.90})
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.RouteContext(context.Background(), p, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n, extract.Extract(n, r)
}

func TestEq3DecompositionIdentity(t *testing.T) {
	// The reported components must sum to Tcp exactly (Eq. 3 of the
	// paper), on a full layout flow and on a path launched at a primary
	// input, whose skew is minus the capture clock's insertion delay.
	for name, build := range map[string]func(testing.TB) (*netlist.Netlist, *extract.Parasitics){
		"layout":    layoutFixture,
		"pi-launch": piLaunch,
	} {
		n, par := build(t)
		res, err := AnalyzeContext(context.Background(), n, par, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range res.PerDomain {
			if rep.Tcp <= 0 {
				t.Fatalf("%s: no critical path found", name)
			}
			if name == "pi-launch" && (rep.Launch != netlist.NoCell || res.ClkArrival[rep.Capture] <= 0) {
				t.Fatalf("%s: fixture launches at %d with capture clock at %.3f, want a PI launch after a clock buffer",
					name, rep.Launch, res.ClkArrival[rep.Capture])
			}
			sum := rep.TWires + rep.TIntrinsic + rep.TLoadDep + rep.TSetup + rep.TSkew
			if math.Abs(sum-rep.Tcp) > 1e-6 {
				t.Errorf("%s domain %d: components sum to %.3f, Tcp = %.3f", name, rep.Domain, sum, rep.Tcp)
			}
		}
	}
}

func TestCaseAnalysisBlocksScanPath(t *testing.T) {
	// ff1.q --(long buffer chain)--> mux.b ; pi -> mux.a ; mux -> ff2.d.
	// With the select constrained to 0 the long path is false and Tcp is
	// short; unconstrained, the long path dominates.
	lib := stdcell.Default()
	n := netlist.New("case", lib)
	clk, dom := n.AddClockPI("clk", 10000)
	d0 := n.AddPI("d0")
	sel := n.AddPI("sel")
	q1 := n.AddNet("q1")
	f1 := n.AddCell("ff1", lib.MustCell("DFFX1"), []netlist.NetID{d0, clk}, q1)
	n.Cells[f1].Domain = dom
	long := q1
	for i := 0; i < 10; i++ {
		id, out := n.InsertOnNet("chain", "BUFX1", long, []netlist.Load{})
		_ = id
		long = out
	}
	muxOut := n.AddNet("muxout")
	n.AddCell("m", lib.MustCell("MUX2X1"), []netlist.NetID{d0, long, sel}, muxOut)
	q2 := n.AddNet("q2")
	f2 := n.AddCell("ff2", lib.MustCell("DFFX1"), []netlist.NetID{muxOut, clk}, q2)
	n.Cells[f2].Domain = dom
	n.AddPO("q2", q2)
	par := extract.Extract(n, nil)

	free, err := AnalyzeContext(context.Background(), n, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := AnalyzeContext(context.Background(), n, par, Options{Constraints: map[netlist.NetID]int8{sel: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.PerDomain[0].Tcp >= free.PerDomain[0].Tcp {
		t.Errorf("case analysis did not shorten the path: %.1f vs %.1f",
			blocked.PerDomain[0].Tcp, free.PerDomain[0].Tcp)
	}
}

func TestSlowNodesFlagged(t *testing.T) {
	// One inverter driving a load far beyond the table range.
	lib := stdcell.Default()
	n := netlist.New("slow", lib)
	clk, dom := n.AddClockPI("clk", 10000)
	d0 := n.AddPI("d0")
	q1 := n.AddNet("q1")
	w := n.AddNet("w")
	f1 := n.AddCell("ff1", lib.MustCell("DFFX1"), []netlist.NetID{d0, clk}, q1)
	n.Cells[f1].Domain = dom
	n.AddCell("inv", lib.MustCell("INVX1"), []netlist.NetID{q1}, w)
	// Fan out to 40 flops: 40 × 1.8 fF = 72 fF plus wire — within range;
	// use a huge synthetic wire cap instead.
	q2 := n.AddNet("q2")
	f2 := n.AddCell("ff2", lib.MustCell("DFFX1"), []netlist.NetID{w, clk}, q2)
	n.Cells[f2].Domain = dom
	n.AddPO("q2", q2)
	par := extract.Extract(n, nil)
	par.WireC[w] = 4000 // fF, far beyond the 256 fF table edge
	res, err := AnalyzeContext(context.Background(), n, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SlowNodes == 0 {
		t.Error("extrapolated lookup not reported as a slow node")
	}
}

func TestTwoDomainsSeparated(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.WirelessCtrlClass().Scale(0.03), lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.PlaceContext(context.Background(), n, place.Options{TargetUtilization: 0.90})
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.RouteContext(context.Background(), p, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par := extract.Extract(n, r)
	res, err := AnalyzeContext(context.Background(), n, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDomain) != 2 {
		t.Fatalf("expected 2 domain reports, got %d", len(res.PerDomain))
	}
	for dom, rep := range res.PerDomain {
		if rep.Tcp <= 0 {
			t.Errorf("domain %d has no critical path", dom)
			continue
		}
		// Launch and capture must both sit in this domain.
		if rep.Launch != netlist.NoCell && n.Cells[rep.Launch].Domain != dom {
			t.Errorf("domain %d path launched from domain %d", dom, n.Cells[rep.Launch].Domain)
		}
		if n.Cells[rep.Capture].Domain != dom {
			t.Errorf("domain %d path captured in domain %d", dom, n.Cells[rep.Capture].Domain)
		}
	}
}
