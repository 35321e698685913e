package scan

import (
	"math/rand"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/tpi"
)

func genSmall(t testing.TB) *netlist.Netlist {
	t.Helper()
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.02), lib)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInsertFormsBalancedChains(t *testing.T) {
	n := genSmall(t)
	ffs := n.NumFlipFlops()
	res, err := Insert(n, nil, Options{MaxChainLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid after scan insertion: %v", err)
	}
	total := 0
	for _, c := range res.Chains {
		if len(c.Elements) > 10 {
			t.Errorf("chain length %d exceeds the limit", len(c.Elements))
		}
		total += len(c.Elements)
	}
	if total != ffs {
		t.Errorf("chains hold %d elements, want all %d flip-flops", total, ffs)
	}
	if res.MaxLength() > 10 {
		t.Errorf("MaxLength = %d", res.MaxLength())
	}
	// Balance: min and max chain lengths differ by at most 1.
	min, max := total, 0
	for _, c := range res.Chains {
		if len(c.Elements) < min {
			min = len(c.Elements)
		}
		if len(c.Elements) > max {
			max = len(c.Elements)
		}
	}
	if max-min > 1 {
		t.Errorf("chains unbalanced: min %d, max %d", min, max)
	}
	// Every flop is now a scan flop.
	for _, ff := range n.FlipFlops() {
		if n.Cells[ff].Cell.Kind != stdcell.KindSdff {
			t.Fatalf("flop %s not converted to a scan flop", n.Cells[ff].Name)
		}
	}
}

func TestMaxChainsLimit(t *testing.T) {
	n := genSmall(t)
	res, err := Insert(n, nil, Options{MaxChains: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChains() != 4 {
		t.Errorf("NumChains = %d, want 4", res.NumChains())
	}
}

// TestShiftThroughChain shifts a marker pattern through a full chain and
// reads it back out, proving the stitching end to end.
func TestShiftThroughChain(t *testing.T) {
	n := genSmall(t)
	res, err := Insert(n, nil, Options{MaxChainLength: 25})
	if err != nil {
		t.Fatal(err)
	}
	s, err := logicsim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	chain := res.Chains[0]
	L := len(chain.Elements)
	s.SetNet(res.SE, ^uint64(0)) // shift mode
	marker := uint64(0xA5A5)
	s.SetNet(chain.ScanIn, marker)
	s.StepClock(-1)
	s.SetNet(chain.ScanIn, 0)
	for i := 1; i < L; i++ {
		s.StepClock(-1)
	}
	// The marker must now sit in the last element, i.e. on scan-out.
	if got := s.Get(chain.ScanOut); got != marker {
		t.Errorf("scan-out after %d shifts = %#x, want %#x", L, got, marker)
	}
}

func TestScanWithTSFFs(t *testing.T) {
	n := genSmall(t)
	tps, err := tpi.Insert(n, tpi.Options{Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Insert(n, tps, Options{MaxChainLength: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Chains {
		total += len(c.Elements)
	}
	if total != n.NumFlipFlops() {
		t.Errorf("chains hold %d elements, want %d (including TSFFs)", total, n.NumFlipFlops())
	}
	// Shift through all chains with both scan-enable and TSFF TE high;
	// every flop (TSFFs included) must take part.
	s, err := logicsim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	s.SetNet(res.SE, ^uint64(0))
	s.SetNet(tps.TE, ^uint64(0))
	s.SetNet(tps.TR, ^uint64(0))
	for _, c := range res.Chains {
		s.SetNet(c.ScanIn, 0x3C3C)
	}
	maxL := res.MaxLength()
	for i := 0; i < maxL; i++ {
		s.StepClock(-1)
	}
	for ci, c := range res.Chains {
		for ei, e := range c.Elements {
			if got := s.Get(n.Cells[e.FF].Out); got != 0x3C3C {
				t.Fatalf("chain %d element %d (%s) holds %#x after full shift, want 0x3C3C",
					ci, ei, n.Cells[e.FF].Name, got)
			}
		}
	}
}

func TestSEBufferTree(t *testing.T) {
	n := genSmall(t)
	res, err := Insert(n, nil, Options{MaxChainLength: 50, SEFanoutLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SEBuffers) == 0 {
		t.Fatal("no scan-enable buffers despite tiny fanout limit")
	}
	if got := n.CSR().FanoutLen(res.SE); got > 8+len(res.SEBuffers) {
		t.Errorf("scan-enable root still drives %d loads", got)
	}
	for _, b := range res.SEBuffers {
		if n.Cells[b].Tag != netlist.TagSEBuffer {
			t.Error("scan-enable buffer not tagged")
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReorderReducesWireLength(t *testing.T) {
	n := genSmall(t)
	res, err := Insert(n, nil, Options{MaxChainLength: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic placement: deterministic random positions on 20 rows.
	rng := rand.New(rand.NewSource(99))
	pos := make(map[netlist.CellID][2]float64)
	for _, ff := range n.FlipFlops() {
		pos[ff] = [2]float64{rng.Float64() * 1000, float64(rng.Intn(20)) * 3.7}
	}
	at := func(id netlist.CellID) (float64, float64) { p := pos[id]; return p[0], p[1] }

	before := WireLength(res, at)
	Reorder(n, res, at)
	after := WireLength(res, at)
	if after >= before {
		t.Errorf("reordering did not reduce chain wire length: %.0f -> %.0f", before, after)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid after reorder: %v", err)
	}
	// Same element set, same chain count.
	count := 0
	for _, c := range res.Chains {
		count += len(c.Elements)
	}
	if count != n.NumFlipFlops() {
		t.Errorf("reorder lost elements: %d vs %d", count, n.NumFlipFlops())
	}
	// Shifting still works end to end after reordering.
	s, err := logicsim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	s.SetNet(res.SE, ^uint64(0))
	c := res.Chains[0]
	s.SetNet(c.ScanIn, 0x77)
	for i := 0; i < len(c.Elements); i++ {
		s.StepClock(-1)
	}
	if got := s.Get(c.ScanOut); got != 0x77 {
		t.Errorf("post-reorder shift broken: scan-out %#x", got)
	}
}
