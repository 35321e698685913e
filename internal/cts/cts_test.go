package cts

import (
	"context"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/stdcell"
)

func built(t testing.TB) (*netlist.Netlist, *place.Placement, *Result) {
	t.Helper()
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.WirelessCtrlClass().Scale(0.04), lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.PlaceContext(context.Background(), n, place.Options{TargetUtilization: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Insert(n, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n, p, r
}

func TestTreeRespectsFanoutLimit(t *testing.T) {
	n, _, r := built(t)
	if len(r.Buffers) == 0 {
		t.Fatal("no clock buffers inserted")
	}
	fan := n.CSR()
	// Every net in the clock trees must drive at most maxFanout sinks
	// (buffers count as sinks of their level).
	for _, b := range r.Buffers {
		out := n.Cells[b].Out
		if fan.FanoutLen(out) > maxFanout {
			t.Errorf("clock buffer %s drives %d loads", n.Cells[b].Name, fan.FanoutLen(out))
		}
		if n.Cells[b].Tag != netlist.TagClockBuf {
			t.Error("clock buffer not tagged")
		}
	}
	for dom := range n.Domains {
		root := n.PIs[n.Domains[dom].ClockPI].Net
		if fan.FanoutLen(root) > maxFanout {
			t.Errorf("clock root %s drives %d loads", n.Domains[dom].Name, fan.FanoutLen(root))
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEveryFlopStillClocked(t *testing.T) {
	n, _, _ := built(t)
	// Walk each flop's clk net back through buffers to a clock root.
	for _, ff := range n.FlipFlops() {
		c := &n.Cells[ff]
		net := c.Ins[c.Cell.FindInput("clk")]
		for hops := 0; hops < 64; hops++ {
			nn := &n.Nets[net]
			if nn.PI >= 0 && n.PIs[nn.PI].Clock {
				if n.PIs[nn.PI].Domain != c.Domain {
					t.Fatalf("flop %s traced to wrong clock domain", c.Name)
				}
				net = netlist.NoNet
				break
			}
			if nn.Driver == netlist.NoCell {
				t.Fatalf("flop %s clock path dead-ends at %s", c.Name, nn.Name)
			}
			net = n.Cells[nn.Driver].Ins[0]
		}
		if net != netlist.NoNet {
			t.Fatalf("flop %s clock path does not reach a root", c.Name)
		}
	}
}

func TestBuffersArePlaced(t *testing.T) {
	n, p, r := built(t)
	for _, b := range r.Buffers {
		if !p.Placed(b) {
			t.Fatalf("clock buffer %s not ECO-placed", n.Cells[b].Name)
		}
	}
	if r.Levels <= 0 {
		t.Error("tree depth not reported")
	}
}

func TestDomainsGetSeparateTrees(t *testing.T) {
	n, _, r := built(t)
	// Buffers must split between the two domains' name prefixes.
	count := map[byte]int{}
	for _, b := range r.Buffers {
		name := n.Cells[b].Name // ctb_d<dom>...
		count[name[5]]++
	}
	if count['0'] == 0 || count['1'] == 0 {
		t.Errorf("expected buffers in both domains, got %v", count)
	}
}

func TestRemoveRestoresDirectClocking(t *testing.T) {
	n, _, r := built(t)
	before := n.NumLiveCells() - len(r.Buffers)
	Remove(n, r)
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid after tree removal: %v", err)
	}
	if got := n.NumLiveCells(); got != before {
		t.Errorf("live cells = %d after removal, want %d", got, before)
	}
	if len(r.Buffers) != 0 {
		t.Error("Remove left buffer records behind")
	}
	// Every flop must be clocked straight from its domain root again.
	for _, ff := range n.FlipFlops() {
		c := &n.Cells[ff]
		clkNet := c.Ins[c.Cell.FindInput("clk")]
		root := n.PIs[n.Domains[c.Domain].ClockPI].Net
		if clkNet != root {
			t.Fatalf("flop %s not reconnected to its clock root", c.Name)
		}
	}
	// Reinsertion after removal works (remove/insert cycle).
	if _, err := Insert(n, mustPlace(t, n), Options{}); err != nil {
		t.Fatalf("re-insert after removal: %v", err)
	}
}

func mustPlace(t *testing.T, n *netlist.Netlist) *place.Placement {
	t.Helper()
	p, err := place.PlaceContext(context.Background(), n, place.Options{TargetUtilization: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
