package netlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tpilayout/internal/stdcell"
)

// buildChain constructs a small random DAG netlist directly through the
// edit primitives (circuitgen lives above this package). Net 0 is the
// clock and nets 1..6 the data PIs; every tenth cell is a flip-flop and
// cells are created in topological order.
func buildChain(seed int64, gates int) (*Netlist, *rand.Rand) {
	lib := stdcell.Default()
	n := New("cache", lib)
	clk, _ := n.AddClockPI("clk", 8000)
	rng := rand.New(rand.NewSource(seed))
	var nets []NetID
	for i := 0; i < 6; i++ {
		nets = append(nets, n.AddPI(fmt.Sprintf("in%d", i)))
	}
	for i := 0; i < gates; i++ {
		out := n.AddNet(fmt.Sprintf("g%d", i))
		a, b := nets[rng.Intn(len(nets))], nets[rng.Intn(len(nets))]
		if i%10 == 9 {
			n.AddCell(fmt.Sprintf("u%d", i), lib.MustCell("DFFX1"), []NetID{a, clk}, out)
		} else if rng.Intn(3) == 0 {
			n.AddCell(fmt.Sprintf("u%d", i), lib.MustCell("INVX1"), []NetID{a}, out)
		} else {
			n.AddCell(fmt.Sprintf("u%d", i), lib.MustCell("NAND2X1"), []NetID{a, b}, out)
		}
		nets = append(nets, out)
	}
	for i := 0; i < 4; i++ {
		n.AddPO(fmt.Sprintf("out%d", i), nets[len(nets)-1-i])
	}
	return n, rng
}

// requireCachesMatchRebuild compares n's cached Levels and CSR with those
// of a netlist holding the same cells and nets and no cache at all.
func requireCachesMatchRebuild(t *testing.T, label string, n *Netlist) {
	t.Helper()
	fresh := &Netlist{Name: n.Name, Lib: n.Lib, Cells: n.Cells, Nets: n.Nets, PIs: n.PIs, POs: n.POs, Domains: n.Domains}
	got, err := n.Levelize()
	if err != nil {
		t.Fatalf("%s: Levelize: %v", label, err)
	}
	if want, _ := fresh.Levelize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cached Levels differ from a rebuild", label)
	}
	if !reflect.DeepEqual(n.CSR(), fresh.CSR()) {
		t.Fatalf("%s: cached CSR differs from a rebuild", label)
	}
}

// pick returns the first live cell at or after a random position that ok
// accepts, or NoCell.
func pick(n *Netlist, rng *rand.Rand, ok func(c *Instance) bool) CellID {
	start := rng.Intn(len(n.Cells))
	for i := range n.Cells {
		ci := CellID((start + i) % len(n.Cells))
		if c := &n.Cells[ci]; !c.Dead && ok(c) {
			return ci
		}
	}
	return NoCell
}

// randomEdits applies count edits drawn from every edit primitive, none of
// which can close a combinational loop, and checks the caches after each:
// they are warm when the next edit has to invalidate them.
func randomEdits(t *testing.T, n *Netlist, rng *rand.Rand, tag string, count int) {
	t.Helper()
	named := func(cell string) func(*Instance) bool {
		return func(c *Instance) bool { return c.Cell.Name == cell }
	}
	for e := 0; e < count; e++ {
		name := fmt.Sprintf("%s_%d", tag, e)
		net := NetID(rng.Intn(len(n.Nets)))
		var err error
		switch rng.Intn(7) {
		case 0: // series buffer insertion (the TPI / CTS edit shape)
			n.InsertOnNet(name, "BUFX1", net, nil)
		case 1: // AddNet, AddCell, partial MoveLoads: each invalidates on its own
			if loads := n.CSR().Fanout(net); len(loads) > 1 {
				to := n.AddNet(name + "_n")
				requireCachesMatchRebuild(t, name+" AddNet", n)
				n.AddCell(name, n.Lib.MustCell("BUFX1"), []NetID{net}, to)
				requireCachesMatchRebuild(t, name+" AddCell", n)
				n.MoveLoads(net, to, loads[:1])
			}
		case 2: // KillCell on a fanout-free cell
			csr := n.CSR()
			if ci := pick(n, rng, func(c *Instance) bool { return csr.FanoutLen(c.Out) == 0 }); ci != NoCell {
				n.KillCell(ci)
			}
		case 3: // connectivity-changing SwapCell (the scan-insertion edit)
			if ci := pick(n, rng, named("DFFX1")); ci != NoCell {
				err = n.SwapCell(ci, "SDFFX1", map[string]NetID{"si": net, "se": 1})
			}
		case 4: // same-kind SwapCell
			if ci := pick(n, rng, named("NAND2X1")); ci != NoCell {
				err = n.SwapCell(ci, "NAND2X2", nil)
			}
		case 5: // SetInput onto a primary input
			n.SetInput(pick(n, rng, named("NAND2X1")), rng.Intn(2), NetID(1+rng.Intn(6)))
		case 6:
			n.AddPO(name, net)
		}
		if err != nil {
			t.Fatal(err)
		}
		requireCachesMatchRebuild(t, name, n)
	}
}

// TestCachesMatchRebuildAfterEdits is the invalidation property: after
// any edit through the primitives the lazily rebuilt caches equal those
// of a netlist built from scratch, and a clone's edits reach neither the
// base's cached pointers nor what they hold.
func TestCachesMatchRebuildAfterEdits(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			n, rng := buildChain(seed, 120)
			n.Prewarm()
			randomEdits(t, n, rng, "e", 24)
			lv, _ := n.Levelize()
			csr := n.CSR()
			c := n.Clone()
			c.InsertOnNet("tb", "BUFX1", c.Cells[len(c.Cells)/2].Out, nil)
			randomEdits(t, c, rng, "clone", 12)
			if got, _ := n.Levelize(); got != lv || n.CSR() != csr {
				t.Fatal("edit on clone replaced the base's caches")
			}
			requireCachesMatchRebuild(t, "base", n)
		})
	}
}

// TestEditClosingLoopReportsCycle feeds a gate's output back into it.
func TestEditClosingLoopReportsCycle(t *testing.T) {
	n, _ := buildChain(7, 60)
	n.Prewarm()
	victim := CellID(len(n.Cells) / 2)
	n.SetInput(victim, 0, n.Cells[victim].Out)
	_, err := n.Levelize()
	if err == nil || !strings.Contains(err.Error(), "cycle through cell "+n.Cells[victim].Name) {
		t.Fatalf("Levelize after closing a loop on %s: %v", n.Cells[victim].Name, err)
	}
}
