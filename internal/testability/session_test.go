package testability

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// TestSessionFollowsSplices drives Update with the plainest splice there
// is — a buffer or inverter put in series on a random net, sources,
// primary-output nets and constrained nets included — and holds every
// array against a fresh Analyze, exactly. (internal/tpi repeats this
// with the TSFF splice on the paper's circuits.)
func TestSessionFollowsSplices(t *testing.T) {
	n, err := circuitgen.Generate(circuitgen.WirelessCtrlClass().Scale(0.03), stdcell.Default())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	randomNet := func() netlist.NetID {
		for {
			net := netlist.NetID(rng.Intn(len(n.Nets)))
			if len(n.CSR().Fanout(net)) > 0 {
				return net
			}
		}
	}
	opt := Options{Constraints: map[netlist.NetID]int8{randomNet(): 0, randomNet(): 1}}
	s, err := NewSession(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		net := randomNet()
		cell := []string{"BUFX1", "INVX1"}[i%2]
		id, out := n.InsertOnNet(fmt.Sprintf("splice%d", i), cell, net, nil)
		moved := s.Update([]netlist.CellID{id}, net, out)

		want, err := Analyze(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Analysis(); !reflect.DeepEqual(got, want) {
			t.Fatalf("splice %d (%s on %s): session differs from a fresh Analyze", i, cell, n.Nets[net].Name)
		}
		csr := n.CSR()
		for id := range n.Nets {
			net := netlist.NetID(id)
			if g, w := s.Fanout(net), csr.Fanout(net); len(g) != len(w) || (len(g) > 0 && !reflect.DeepEqual(g, w)) {
				t.Fatalf("splice %d: fanout of %s = %v, CSR rebuild says %v", i, n.Nets[id].Name, g, w)
			}
		}
		seen := map[netlist.NetID]bool{}
		for _, m := range moved {
			if seen[m] {
				t.Fatalf("splice %d: net %s reported moved twice", i, n.Nets[m].Name)
			}
			seen[m] = true
		}
		if !seen[net] || !seen[out] {
			t.Fatalf("splice %d: touched nets missing from the moved list", i)
		}
	}
}
