package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tpilayout/internal/stdcell"
)

// TestRandomEditSequencesStayValid drives the editing API with random
// operation sequences and checks the structural invariants survive every
// step — the property every DfT pass relies on.
func TestRandomEditSequencesStayValid(t *testing.T) {
	lib := stdcell.Default()
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New("prop", lib)
		clk, dom := n.AddClockPI("clk", 1000)
		var nets []NetID
		for i := 0; i < 4; i++ {
			nets = append(nets, n.AddPI("pi"))
		}
		// A few seed gates.
		for i := 0; i < 4; i++ {
			out := n.AddNet("w")
			n.AddCell("g", lib.MustCell("NAND2X1"),
				[]NetID{nets[rng.Intn(len(nets))], nets[rng.Intn(len(nets))]}, out)
			nets = append(nets, out)
		}
		n.AddPO("po", nets[len(nets)-1])

		if len(ops) > 24 {
			ops = ops[:24]
		}
		for _, op := range ops {
			switch op % 4 {
			case 0: // buffer insertion on a random net
				id := nets[rng.Intn(len(nets))]
				_, out := n.InsertOnNet("b", "BUFX1", id, nil)
				nets = append(nets, out)
			case 1: // new gate from existing nets
				out := n.AddNet("w")
				n.AddCell("g", lib.MustCell("AND2X1"),
					[]NetID{nets[rng.Intn(len(nets))], nets[rng.Intn(len(nets))]}, out)
				nets = append(nets, out)
			case 2: // flop on a random net
				out := n.AddNet("q")
				ff := n.AddCell("f", lib.MustCell("DFFX1"),
					[]NetID{nets[rng.Intn(len(nets))], clk}, out)
				n.Cells[ff].Domain = dom
				nets = append(nets, out)
			case 3: // flop -> scan flop swap
				ffs := n.FlipFlops()
				if len(ffs) == 0 {
					continue
				}
				ff := ffs[rng.Intn(len(ffs))]
				if n.Cells[ff].Cell.Kind == stdcell.KindDff {
					si := nets[rng.Intn(len(nets))]
					se := nets[0]
					if err := n.SwapCell(ff, "SDFFX1", map[string]NetID{"si": si, "se": se}); err != nil {
						return false
					}
				}
			}
			if err := n.Validate(); err != nil {
				t.Logf("invalid after op %d: %v", op%4, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFanoutIndexConsistency checks that the fanout index always agrees
// with the cell connections after arbitrary edits.
func TestFanoutIndexConsistency(t *testing.T) {
	lib := stdcell.Default()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New("fan", lib)
		var nets []NetID
		for i := 0; i < 3; i++ {
			nets = append(nets, n.AddPI("pi"))
		}
		for i := 0; i < 10; i++ {
			out := n.AddNet("w")
			n.AddCell("g", lib.MustCell("NOR2X1"),
				[]NetID{nets[rng.Intn(len(nets))], nets[rng.Intn(len(nets))]}, out)
			nets = append(nets, out)
		}
		n.AddPO("po", nets[len(nets)-1])
		// Count connections both ways.
		fromIndex := len(n.CSR().FanoutLoads)
		fromCells := len(n.POs)
		for ci := range n.Cells {
			if !n.Cells[ci].Dead {
				fromCells += len(n.Cells[ci].Ins)
			}
		}
		return fromIndex == fromCells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
