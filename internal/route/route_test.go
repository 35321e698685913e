package route

import (
	"context"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/stdcell"
)

func routed(t testing.TB, util float64) (*place.Placement, *Result) {
	t.Helper()
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.03), lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.PlaceContext(context.Background(), n, place.Options{TargetUtilization: util})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RouteContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

func TestRouteLengthAtLeastHPWL(t *testing.T) {
	p, r := routed(t, 0.90)
	hp := p.HPWL()
	if r.Total < hp {
		t.Errorf("routed length %.0f below the HPWL lower bound %.0f", r.Total, hp)
	}
	if r.Total > 3*hp {
		t.Errorf("routed length %.0f implausibly above HPWL %.0f", r.Total, hp)
	}
}

func TestRouteDeterministic(t *testing.T) {
	_, r1 := routed(t, 0.90)
	_, r2 := routed(t, 0.90)
	if r1.Total != r2.Total {
		t.Errorf("router not deterministic: %.1f vs %.1f", r1.Total, r2.Total)
	}
}

func TestTwoPinNetLength(t *testing.T) {
	// A net between two placed cells must be at least their Manhattan
	// distance and no more than distance + detours.
	p, r := routed(t, 0.90)
	n := p.N
	fan := n.CSR()
	checked := 0
	for id := range n.Nets {
		if n.Nets[id].Dead || n.Nets[id].Const >= 0 || n.Nets[id].Driver < 0 {
			continue
		}
		loads := fan.Fanout(netlist.NetID(id))
		if len(loads) != 1 || loads[0].Cell < 0 {
			continue
		}
		x1, y1 := p.Pos(n.Nets[id].Driver)
		x2, y2 := p.Pos(loads[0].Cell)
		d := abs(x1-x2) + abs(y1-y2)
		if r.NetLen[id] < d-1e-6 {
			t.Fatalf("net %s routed %.1f < manhattan %.1f", n.Nets[id].Name, r.NetLen[id], d)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no two-pin nets checked")
	}
}

func TestCongestionGrowsWithUtilization(t *testing.T) {
	_, loose := routed(t, 0.60)
	_, tight := routed(t, 0.97)
	if tight.Overflow < loose.Overflow {
		t.Errorf("overflow at 97%% (%d) below 60%% (%d)", tight.Overflow, loose.Overflow)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRouteAllocations: routing reuses its scratch from net to net, so
// RouteContext makes the same few allocations however many nets it
// routes: one pin buffer, the net order and the grid, not a slice or
// three per net.
func TestRouteAllocations(t *testing.T) {
	const bound = 8
	var got []float64
	for _, scale := range []float64{0.03, 0.1} {
		n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(scale), stdcell.Default())
		if err != nil {
			t.Fatal(err)
		}
		p, err := place.PlaceContext(context.Background(), n, place.Options{TargetUtilization: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := RouteContext(context.Background(), p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("x%g: %d nets, %.0f allocations per route", scale, len(n.Nets), allocs)
		got = append(got, allocs)
	}
	if got[0] != got[1] || got[1] > bound {
		t.Errorf("RouteContext allocates %v times at x0.03 and x0.1, want one count of at most %d", got, bound)
	}
}
