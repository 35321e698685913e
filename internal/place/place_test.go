package place

import (
	"context"
	"math"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

func placeSmall(t testing.TB, util float64) (*netlist.Netlist, *Placement) {
	t.Helper()
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.03), lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlaceContext(context.Background(), n, Options{TargetUtilization: util})
	if err != nil {
		t.Fatal(err)
	}
	return n, p
}

// checkLegal verifies no overlaps, site alignment, and row bounds.
func checkLegal(t *testing.T, n *netlist.Netlist, p *Placement) {
	t.Helper()
	type span struct {
		x0, x1 float64
		id     netlist.CellID
	}
	rows := make([][]span, p.NumRows)
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead || c.Cell.Kind.IsPhysicalOnly() {
			continue
		}
		r := p.Row[ci]
		if r < 0 || int(r) >= p.NumRows {
			t.Fatalf("cell %s in invalid row %d", c.Name, r)
		}
		x := p.X[ci]
		if x < -1e-9 || x+c.Cell.Width > p.RowLen+1e-6 {
			t.Fatalf("cell %s at x=%g exceeds row length %g", c.Name, x, p.RowLen)
		}
		if rem := math.Mod(x+1e-9, n.Lib.SiteWidth); rem > 1e-6 && n.Lib.SiteWidth-rem > 1e-6 {
			t.Fatalf("cell %s not site-aligned (x=%g)", c.Name, x)
		}
		rows[r] = append(rows[r], span{x, x + c.Cell.Width, netlist.CellID(ci)})
	}
	for r := range rows {
		s := rows[r]
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[i].x0 < s[j].x1-1e-9 && s[j].x0 < s[i].x1-1e-9 {
					t.Fatalf("row %d: cells %s and %s overlap",
						r, n.Cells[s[i].id].Name, n.Cells[s[j].id].Name)
				}
			}
		}
	}
}

func TestPlacementLegal(t *testing.T) {
	n, p := placeSmall(t, 0.97)
	checkLegal(t, n, p)
}

func TestUtilizationNearTarget(t *testing.T) {
	for _, util := range []float64{0.97, 0.50} {
		_, p := placeSmall(t, util)
		got := p.RowUtilization()
		if got > util+0.02 || got < util-0.12 {
			t.Errorf("utilization %.3f for target %.2f", got, util)
		}
		// Core area scales inversely with utilization.
		if math.Abs(p.AspectRatio()-1) > 0.25 {
			t.Errorf("aspect ratio %.2f too far from square", p.AspectRatio())
		}
	}
}

func TestLowerUtilizationMeansBiggerCore(t *testing.T) {
	_, pHigh := placeSmall(t, 0.97)
	_, pLow := placeSmall(t, 0.50)
	if pLow.CoreArea() <= pHigh.CoreArea() {
		t.Errorf("50%% utilization core (%.0f) not larger than 97%% core (%.0f)",
			pLow.CoreArea(), pHigh.CoreArea())
	}
	if pLow.ChipArea() <= pLow.CoreArea() {
		t.Error("chip area must exceed core area (rings)")
	}
}

func TestMinCutBeatsRandomOrderHPWL(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.03), lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlaceContext(context.Background(), n, Options{TargetUtilization: 0.97})
	if err != nil {
		t.Fatal(err)
	}
	good := p.HPWL()

	// Baseline: identical floorplan, cells packed in plain ID order.
	q := &Placement{N: n, Opt: p.Opt}
	q.floorplan()
	q.X = make([]float64, len(n.Cells))
	q.Row = make([]int32, len(n.Cells))
	for i := range q.Row {
		q.Row[i] = -1
	}
	r, x := 0, 0.0
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead {
			continue
		}
		if x+c.Cell.Width > q.RowLen {
			r++
			x = 0
		}
		if r >= q.NumRows {
			r = q.NumRows - 1
		}
		q.Row[ci] = int32(r)
		q.X[ci] = x
		x += c.Cell.Width
	}
	naive := q.HPWL()
	if good >= naive {
		t.Errorf("min-cut HPWL %.0f not better than naive order %.0f", good, naive)
	}
	t.Logf("HPWL: min-cut %.0f vs naive %.0f (%.1fx)", good, naive, naive/good)
}

func TestECOPlacesNewCells(t *testing.T) {
	n, p := placeSmall(t, 0.90)
	// Add a handful of buffers on existing nets, as CTS would.
	var added []netlist.CellID
	for i, ff := range n.FlipFlops() {
		if i >= 5 {
			break
		}
		buf, _ := n.InsertOnNet("ecobuf", "BUFX2", n.Cells[ff].Out, nil)
		added = append(added, buf)
	}
	if err := p.ECO(); err != nil {
		t.Fatal(err)
	}
	for _, id := range added {
		if !p.Placed(id) {
			t.Fatalf("ECO left %s unplaced", n.Cells[id].Name)
		}
	}
	checkLegal(t, n, p)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestECONearCentroid(t *testing.T) {
	n, p := placeSmall(t, 0.50)
	ff := n.FlipFlops()[0]
	fx, fy := p.Pos(ff)
	buf, _ := n.InsertOnNet("nearbuf", "BUFX2", n.Cells[ff].Out, nil)
	if err := p.ECO(); err != nil {
		t.Fatal(err)
	}
	bx, by := p.Pos(buf)
	// At 50% utilization there is free space close by; the buffer should
	// land within a modest distance of its neighbourhood centroid.
	if d := math.Abs(bx-fx) + math.Abs(by-fy); d > p.CoreW()/2 {
		t.Errorf("ECO cell landed %.0f µm from its driver", d)
	}
}

// TestECOExtendKeepsLegal fills every row, so ECO must lengthen the rows.
// A row whose last free interval is interior (cells follow it up to the
// old row end) must gain the new space after its last cell, not have that
// interval stretched across the cells behind it.
func TestECOExtendKeepsLegal(t *testing.T) {
	n, p := placeSmall(t, 0.97)
	p.InsertFillers()
	oldLen := p.RowLen
	var added []netlist.CellID
	for i, ff := range n.FlipFlops() {
		if i >= 40 {
			break
		}
		buf, _ := n.InsertOnNet("ecobuf", "BUFX4", n.Cells[ff].Out, nil)
		added = append(added, buf)
	}
	if err := p.ECO(); err != nil {
		t.Fatal(err)
	}
	if p.RowLen <= oldLen {
		t.Fatalf("row length %g did not grow from %g: the rows were never extended", p.RowLen, oldLen)
	}
	for _, id := range added {
		if !p.Placed(id) {
			t.Fatalf("ECO left %s unplaced", n.Cells[id].Name)
		}
	}
	checkLegal(t, n, p)
}

func TestInsertFillers(t *testing.T) {
	n, p := placeSmall(t, 0.80)
	area := p.InsertFillers()
	if area <= 0 {
		t.Fatal("no filler area at 80% utilization")
	}
	frac := area / p.CoreArea()
	if frac < 0.05 || frac > 0.30 {
		t.Errorf("filler fraction %.3f implausible for 80%% utilization", frac)
	}
	for _, id := range p.FillerCells {
		if n.Cells[id].Tag != netlist.TagFiller {
			t.Fatal("filler not tagged")
		}
	}
	// After filling, gaps narrower than the smallest filler may remain,
	// but total cell+filler occupancy must be close to the core area.
	occ := 0.0
	for ci := range n.Cells {
		if !n.Cells[ci].Dead {
			occ += n.Cells[ci].Cell.Area()
		}
	}
	if occ/p.CoreArea() < 0.95 {
		t.Errorf("occupancy after filling = %.3f, want ≥ 0.95", occ/p.CoreArea())
	}
}

func TestRemoveFillers(t *testing.T) {
	n, p := placeSmall(t, 0.80)
	if p.InsertFillers() <= 0 {
		t.Fatal("no fillers inserted")
	}
	count := len(p.FillerCells)
	if count == 0 {
		t.Fatal("no filler records")
	}
	live := n.NumLiveCells()
	p.RemoveFillers()
	if n.NumLiveCells() != live-count {
		t.Errorf("live cells %d, want %d", n.NumLiveCells(), live-count)
	}
	if len(p.FillerCells) != 0 {
		t.Error("filler records not cleared")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}
