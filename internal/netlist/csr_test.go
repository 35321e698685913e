package netlist_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/tpi"
)

// referenceAdjacency rebuilds the fanout/fanin maps the slow, obvious way,
// straight from the Instance arrays and in the order CSR documents (live
// cells ascending, pins in order, then POs).
// It is the ground truth the flat CSR must reproduce bit for bit, because
// fault Load indices are defined against that order.
func referenceAdjacency(n *netlist.Netlist) (fan [][]netlist.Load, fanin [][]netlist.NetID) {
	fan = make([][]netlist.Load, len(n.Nets))
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead {
			continue
		}
		for pin, net := range c.Ins {
			if net != netlist.NoNet {
				fan[net] = append(fan[net], netlist.Load{Cell: netlist.CellID(ci), Pin: int32(pin), PO: -1})
			}
		}
	}
	for pi := range n.POs {
		if net := n.POs[pi].Net; net != netlist.NoNet {
			fan[net] = append(fan[net], netlist.Load{Cell: netlist.NoCell, Pin: -1, PO: int32(pi)})
		}
	}
	fanin = make([][]netlist.NetID, len(n.Cells))
	for ci := range n.Cells {
		fanin[ci] = append([]netlist.NetID(nil), n.Cells[ci].Ins...)
	}
	return fan, fanin
}

// referenceLevelize is an independent Kahn levelization over the naive
// adjacency, mirroring Levelize's source/sink semantics. Order is
// canonically (level, cell ID); the reference realizes that with a plain
// comparison sort, independent of Levelize's counting sort.
func referenceLevelize(n *netlist.Netlist, fan [][]netlist.Load) *netlist.Levels {
	combDriven := func(net netlist.NetID) bool {
		d := n.Nets[net].Driver
		if d == netlist.NoCell {
			return false
		}
		k := n.Cells[d].Cell.Kind
		return !k.IsSequential() && !k.IsPhysicalOnly()
	}
	isComb := func(ci int) bool {
		c := &n.Cells[ci]
		return !c.Dead && !c.Cell.Kind.IsSequential() && !c.Cell.Kind.IsPhysicalOnly()
	}
	lv := &netlist.Levels{
		CellLevel: make([]int32, len(n.Cells)),
		NetLevel:  make([]int32, len(n.Nets)),
	}
	pend := make([]int, len(n.Cells))
	var ready []netlist.CellID
	for ci := range n.Cells {
		lv.CellLevel[ci] = -1
		if !isComb(ci) {
			continue
		}
		for _, net := range n.Cells[ci].Ins {
			if net != netlist.NoNet && combDriven(net) {
				pend[ci]++
			}
		}
		if pend[ci] == 0 {
			ready = append(ready, netlist.CellID(ci))
		}
	}
	for len(ready) > 0 {
		ci := ready[0]
		ready = ready[1:]
		level := int32(0)
		c := &n.Cells[ci]
		for _, net := range c.Ins {
			if net != netlist.NoNet && lv.NetLevel[net] >= level {
				level = lv.NetLevel[net]
			}
		}
		level++
		lv.CellLevel[ci] = level
		if int(level) > lv.MaxLevel {
			lv.MaxLevel = int(level)
		}
		lv.Order = append(lv.Order, ci)
		if c.Out == netlist.NoNet {
			continue
		}
		lv.NetLevel[c.Out] = level
		for _, ld := range fan[c.Out] {
			if ld.Cell == netlist.NoCell || !isComb(int(ld.Cell)) {
				continue
			}
			if pend[ld.Cell]--; pend[ld.Cell] == 0 {
				ready = append(ready, ld.Cell)
			}
		}
	}
	sort.Slice(lv.Order, func(i, j int) bool {
		a, b := lv.Order[i], lv.Order[j]
		if lv.CellLevel[a] != lv.CellLevel[b] {
			return lv.CellLevel[a] < lv.CellLevel[b]
		}
		return a < b
	})
	return lv
}

func checkAdjacency(t *testing.T, n *netlist.Netlist, label string) {
	t.Helper()
	fan, fanin := referenceAdjacency(n)
	csr := n.CSR()
	if got, want := len(csr.FanoutIdx), len(n.Nets)+1; got != want {
		t.Fatalf("%s: FanoutIdx len = %d, want %d", label, got, want)
	}
	for id := range n.Nets {
		net := netlist.NetID(id)
		want := fan[id]
		got := csr.Fanout(net)
		if len(got) != len(want) || csr.FanoutLen(net) != len(want) {
			t.Fatalf("%s: net %d fanout len = %d (FanoutLen %d), want %d",
				label, id, len(got), csr.FanoutLen(net), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: net %d load %d = %+v, want %+v", label, id, k, got[k], want[k])
			}
		}
	}
	for ci := range n.Cells {
		got := csr.Fanin(netlist.CellID(ci))
		want := fanin[ci]
		if len(got) != len(want) {
			t.Fatalf("%s: cell %d fanin len = %d, want %d", label, ci, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: cell %d fanin[%d] = %d, want %d", label, ci, k, got[k], want[k])
			}
			// Flat pin addressing must agree with the slice accessor.
			if flat := csr.FaninNets[csr.FaninIdx[ci]+int32(k)]; flat != want[k] {
				t.Fatalf("%s: cell %d flat fanin[%d] = %d, want %d", label, ci, k, flat, want[k])
			}
		}
	}

	lv, err := n.Levelize()
	if err != nil {
		t.Fatalf("%s: Levelize: %v", label, err)
	}
	ref := referenceLevelize(n, fan)
	if lv.MaxLevel != ref.MaxLevel || len(lv.Order) != len(ref.Order) {
		t.Fatalf("%s: levelize shape (max %d, %d cells) != reference (max %d, %d cells)",
			label, lv.MaxLevel, len(lv.Order), ref.MaxLevel, len(ref.Order))
	}
	for i := range ref.Order {
		if lv.Order[i] != ref.Order[i] {
			t.Fatalf("%s: Order[%d] = %d, want %d", label, i, lv.Order[i], ref.Order[i])
		}
	}
	for ci := range ref.CellLevel {
		if lv.CellLevel[ci] != ref.CellLevel[ci] {
			t.Fatalf("%s: CellLevel[%d] = %d, want %d", label, ci, lv.CellLevel[ci], ref.CellLevel[ci])
		}
	}
	for id := range ref.NetLevel {
		if lv.NetLevel[id] != ref.NetLevel[id] {
			t.Fatalf("%s: NetLevel[%d] = %d, want %d", label, id, lv.NetLevel[id], ref.NetLevel[id])
		}
	}
}

// TestCSRMatchesReference differentially checks the flat CSR adjacency
// (and the levelization derived from it) against a naive rebuild from the
// Instance arrays, on randomized circuitgen netlists — fresh, after TPI
// (the dirty/rebuild path), and after further random structural edits.
func TestCSRMatchesReference(t *testing.T) {
	lib := stdcell.Default()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			spec := circuitgen.Spec{
				Name:     fmt.Sprintf("rand%d", seed),
				Seed:     seed * 977,
				NumPI:    4 + rng.Intn(12),
				NumPO:    4 + rng.Intn(12),
				NumFF:    8 + rng.Intn(40),
				NumGates: 60 + rng.Intn(300),
				Domains:  []circuitgen.DomainSpec{{Name: "clk", PeriodPS: 8000, Frac: 1.0}},
			}
			if seed%2 == 0 {
				spec.HardGroups, spec.SubCones, spec.HardWidth = 1, 3, 4
			}
			n, err := circuitgen.Generate(spec, lib)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			checkAdjacency(t, n, "fresh")

			// TPI mutates connectivity (mux/FF insertion on ranked nets):
			// the cached CSR must be invalidated and rebuilt consistently.
			if _, err := tpi.Insert(n, tpi.Options{Count: 3}); err != nil {
				t.Fatalf("tpi.Insert: %v", err)
			}
			checkAdjacency(t, n, "post-TPI")

			// A few more raw edits through every mutating entry point.
			for i := 0; i < 4; i++ {
				id := netlist.NetID(rng.Intn(len(n.Nets)))
				n.InsertOnNet(fmt.Sprintf("tb%d", i), "BUFX1", id, nil)
			}
			checkAdjacency(t, n, "post-edit")
		})
	}

	t.Run("paper-circuit", func(t *testing.T) {
		t.Parallel()
		n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.02), lib)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		checkAdjacency(t, n, "s38417c-scaled")
	})
}

// TestCSRDirtySplit locks what does and does not bump the connectivity
// revision: a same-kind swap (same pin map) rebuilds nothing — the cached
// CSR and Levels pointers stay — while a connectivity edit invalidates
// both, on the edited netlist only.
func TestCSRDirtySplit(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.Spec{
		Name: "dirty", Seed: 7, NumPI: 6, NumPO: 6, NumFF: 10, NumGates: 80,
		Domains: []circuitgen.DomainSpec{{Name: "clk", PeriodPS: 8000, Frac: 1.0}},
	}, lib)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	before := n.CSR()
	levels := func(n *netlist.Netlist) *netlist.Levels {
		lv, err := n.Levelize()
		if err != nil {
			t.Fatalf("Levelize: %v", err)
		}
		return lv
	}
	lvBefore := levels(n)

	// Find a NAND2X1 to upsize: a drive-strength swap keeps the net↔pin
	// graph intact, so the adjacency cache must survive.
	swapped := false
	for ci := range n.Cells {
		if !n.Cells[ci].Dead && n.Cells[ci].Cell.Name == "NAND2X1" {
			if err := n.SwapCell(netlist.CellID(ci), "NAND2X2", nil); err != nil {
				t.Fatalf("SwapCell: %v", err)
			}
			swapped = true
			break
		}
	}
	if !swapped {
		t.Fatal("no NAND2X1 in generated circuit to swap")
	}
	if n.CSR() != before || levels(n) != lvBefore {
		t.Fatal("same-kind SwapCell invalidated a cache")
	}

	// A clone shares the warmed cache pointer until its first edit.
	clone := n.Clone()
	if clone.CSR() != before || levels(clone) != lvBefore {
		t.Fatal("Clone did not share the cached pointers")
	}

	// Connectivity edit: must rebuild.
	clone.InsertOnNet("tb", "BUFX1", clone.Cells[0].Out, nil)
	if clone.CSR() == before || levels(clone) == lvBefore {
		t.Fatal("connectivity edit did not invalidate the clone's caches")
	}
	// ...and the parent keeps its original pointers untouched.
	if n.CSR() != before || levels(n) != lvBefore {
		t.Fatal("edit on clone invalidated the parent's caches")
	}
	checkAdjacency(t, clone, "clone-post-edit")
}
