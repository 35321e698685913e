package extract

import (
	"context"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/route"
	"tpilayout/internal/stdcell"
)

func TestExtractBasics(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("x", lib)
	a := n.AddPI("a")
	y := n.AddNet("y")
	n.AddCell("g1", lib.MustCell("INVX1"), []netlist.NetID{a}, y)
	g2 := n.AddCell("g2", lib.MustCell("NAND2X1"), []netlist.NetID{y, a}, n.AddNet("z"))
	_ = g2
	n.AddPO("z", netlist.NetID(2))

	r := &route.Result{NetLen: make([]float64, len(n.Nets))}
	r.NetLen[y] = 100 // µm
	p := Extract(n, r)

	wantR := 100 * lib.WireResPerUM
	wantC := 100 * lib.WireCapPerUM
	if p.WireR[y] != wantR || p.WireC[y] != wantC {
		t.Errorf("wire RC = (%g,%g), want (%g,%g)", p.WireR[y], p.WireC[y], wantR, wantC)
	}
	// y drives one NAND input pin (2.0 fF); a drives INV a and NAND b.
	if p.PinC[y] != 2.0 {
		t.Errorf("PinC(y) = %g, want 2.0", p.PinC[y])
	}
	if p.PinC[a] != 4.0 {
		t.Errorf("PinC(a) = %g, want 4.0", p.PinC[a])
	}
	if p.TotalLoad(y) != wantC+2.0 {
		t.Errorf("TotalLoad(y) = %g", p.TotalLoad(y))
	}
	wantDelay := wantR * (wantC/2 + 2.0)
	if d := p.WireDelay(y); d != wantDelay {
		t.Errorf("WireDelay(y) = %g, want %g", d, wantDelay)
	}
}

func TestExtractScalesWithLayout(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.03), lib)
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
	par := Extract(n, r)
	totalC := 0.0
	for id := range n.Nets {
		totalC += par.WireC[id]
	}
	want := r.Total * lib.WireCapPerUM
	if diff := totalC - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("total wire C %.1f does not match total length × cap/µm %.1f", totalC, want)
	}
}
