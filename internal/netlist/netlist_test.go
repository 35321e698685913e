package netlist

import (
	"testing"

	"tpilayout/internal/stdcell"
)

// buildSmall constructs:
//
//	pi_a ─┐
//	      ├─ NAND2 u1 ── n1 ─┬─ INV u2 ── n2 ── DFF ff1 ── q1 ── PO out
//	pi_b ─┘                  └───────────────────────────── PO tap
func buildSmall(t testing.TB) *Netlist {
	t.Helper()
	lib := stdcell.Default()
	n := New("small", lib)
	clk, dom := n.AddClockPI("clk", 10000)
	_ = clk
	a := n.AddPI("pi_a")
	b := n.AddPI("pi_b")
	n1 := n.AddNet("n1")
	n2 := n.AddNet("n2")
	q1 := n.AddNet("q1")
	n.AddCell("u1", lib.MustCell("NAND2X1"), []NetID{a, b}, n1)
	n.AddCell("u2", lib.MustCell("INVX1"), []NetID{n1}, n2)
	ff := n.AddCell("ff1", lib.MustCell("DFFX1"), []NetID{n2, n.PIs[0].Net}, q1)
	n.Cells[ff].Domain = dom
	n.AddPO("out", q1)
	n.AddPO("tap", n1)
	return n
}

// netByName finds a net ID by name, failing the test if absent.
func netByName(t testing.TB, n *Netlist, name string) NetID {
	t.Helper()
	for i := range n.Nets {
		if n.Nets[i].Name == name {
			return NetID(i)
		}
	}
	t.Fatalf("no net %q", name)
	return NoNet
}

func TestBuildAndValidate(t *testing.T) {
	n := buildSmall(t)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := n.NumLiveCells(); got != 3 {
		t.Errorf("NumLiveCells = %d, want 3", got)
	}
	if got := n.NumFlipFlops(); got != 1 {
		t.Errorf("NumFlipFlops = %d, want 1", got)
	}
	if got := len(n.FlipFlops()); got != 1 {
		t.Errorf("len(FlipFlops) = %d, want 1", got)
	}
}

func TestFanouts(t *testing.T) {
	n := buildSmall(t)
	fan := n.CSR()
	// n1 drives u2's input and the "tap" PO.
	n1 := netByName(t, n, "n1")
	if len(fan.Fanout(n1)) != 2 {
		t.Fatalf("fanout(n1) = %d loads, want 2", len(fan.Fanout(n1)))
	}
	var haveCell, havePO bool
	for _, ld := range fan.Fanout(n1) {
		if ld.Cell != NoCell {
			haveCell = true
		} else if ld.PO >= 0 {
			havePO = true
		}
	}
	if !haveCell || !havePO {
		t.Errorf("fanout(n1) loads = %+v, want one cell pin and one PO", fan.Fanout(n1))
	}
}

func TestLevelize(t *testing.T) {
	n := buildSmall(t)
	lv, err := n.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	if len(lv.Order) != 2 {
		t.Fatalf("order has %d cells, want 2 (combinational only)", len(lv.Order))
	}
	// u1 (NAND) must precede u2 (INV).
	if n.Cells[lv.Order[0]].Name != "u1" || n.Cells[lv.Order[1]].Name != "u2" {
		t.Errorf("order = [%s %s], want [u1 u2]",
			n.Cells[lv.Order[0]].Name, n.Cells[lv.Order[1]].Name)
	}
	if lv.MaxLevel != 2 {
		t.Errorf("MaxLevel = %d, want 2", lv.MaxLevel)
	}
}

func TestLevelizeDetectsCycle(t *testing.T) {
	lib := stdcell.Default()
	n := New("cyc", lib)
	a := n.AddPI("a")
	x := n.AddNet("x")
	y := n.AddNet("y")
	n.AddCell("g1", lib.MustCell("NAND2X1"), []NetID{a, y}, x)
	n.AddCell("g2", lib.MustCell("INVX1"), []NetID{x}, y)
	if _, err := n.Levelize(); err == nil {
		t.Fatal("Levelize accepted a combinational cycle")
	}
}

func TestSwapCellToScanFF(t *testing.T) {
	n := buildSmall(t)
	ffID := n.FlipFlops()[0]
	si := n.AddPI("si")
	se := n.AddPI("se")
	if err := n.SwapCell(ffID, "SDFFX1", map[string]NetID{"si": si, "se": se}); err != nil {
		t.Fatal(err)
	}
	c := n.Cell(ffID)
	if c.Cell.Name != "SDFFX1" {
		t.Fatalf("cell is %s, want SDFFX1", c.Cell.Name)
	}
	// d and clk connections must be preserved by name.
	if n.Nets[c.Ins[c.Cell.FindInput("d")]].Name != "n2" {
		t.Error("d pin lost its net across the swap")
	}
	if n.Nets[c.Ins[c.Cell.FindInput("clk")]].Name != "clk" {
		t.Error("clk pin lost its net across the swap")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after swap: %v", err)
	}
}

func TestSwapCellMissingPin(t *testing.T) {
	n := buildSmall(t)
	ffID := n.FlipFlops()[0]
	if err := n.SwapCell(ffID, "SDFFX1", nil); err == nil {
		t.Fatal("SwapCell silently left si/se unconnected")
	}
}

func TestInsertOnNet(t *testing.T) {
	n := buildSmall(t)
	n1 := netByName(t, n, "n1")
	before := len(n.CSR().Fanout(n1))
	bufID, newNet := n.InsertOnNet("buf0", "BUFX2", n1, nil)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after insert: %v", err)
	}
	fan := n.CSR()
	if len(fan.Fanout(n1)) != 1 {
		t.Fatalf("old net keeps %d loads, want 1 (the buffer)", len(fan.Fanout(n1)))
	}
	if fan.Fanout(n1)[0].Cell != bufID {
		t.Error("old net's only load is not the inserted buffer")
	}
	if len(fan.Fanout(newNet)) != before {
		t.Errorf("new net has %d loads, want %d", len(fan.Fanout(newNet)), before)
	}
}

func TestKillCellReleasesDriver(t *testing.T) {
	n := buildSmall(t)
	// Kill u2 and redrive n2 from a fresh buffer off n1.
	var u2 CellID = -1
	for ci := range n.Cells {
		if n.Cells[ci].Name == "u2" {
			u2 = CellID(ci)
		}
	}
	out := n.Cells[u2].Out
	n.KillCell(u2)
	if n.Nets[out].Driver != NoCell {
		t.Fatal("KillCell left the output net driven")
	}
	lib := n.Lib
	n.AddCell("b", lib.MustCell("BUFX1"), []NetID{netByName(t, n, "n1")}, out)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate after redrive: %v", err)
	}
	if n.NumLiveCells() != 3 {
		t.Errorf("NumLiveCells = %d, want 3", n.NumLiveCells())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	n := buildSmall(t)
	c := n.Clone()
	c.InsertOnNet("bufX", "BUFX1", netByName(t, c, "n1"), nil)
	if n.NumLiveCells() == c.NumLiveCells() {
		t.Fatal("edit to clone changed (or matched) original cell count")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("original invalidated by clone edit: %v", err)
	}
	// Cell input slices must not be shared.
	c.Cells[0].Ins[0] = NoNet
	if n.Cells[0].Ins[0] == NoNet {
		t.Fatal("clone shares Ins slice with original")
	}
}

func TestAddConstDedup(t *testing.T) {
	lib := stdcell.Default()
	n := New("k", lib)
	a := n.AddConst(0)
	b := n.AddConst(0)
	c := n.AddConst(1)
	if a != b {
		t.Error("AddConst(0) not deduplicated")
	}
	if a == c {
		t.Error("const0 and const1 share a net")
	}
}

func TestDoubleDrivePanics(t *testing.T) {
	lib := stdcell.Default()
	n := New("dd", lib)
	a := n.AddPI("a")
	defer func() {
		if recover() == nil {
			t.Error("driving a PI net did not panic")
		}
	}()
	n.AddCell("g", lib.MustCell("INVX1"), []NetID{a}, a)
}
