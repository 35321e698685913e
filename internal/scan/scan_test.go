package scan

import (
	"fmt"
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
	res, err := Insert(n, nil, Options{MaxChainLength: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SEBuffers) == 0 {
		t.Fatalf("no scan-enable buffers for %d flops", n.NumFlipFlops())
	}
	if got := n.CSR().FanoutLen(res.SE); got > seFanoutLimit+len(res.SEBuffers) {
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

// TestChainInventory checks the stitched scan structure, after Insert and
// again after Reorder: each chain head reads its own scan-in PI si<i> and
// each chain's last flop drives the PO so<i>; every scan flip-flop and TSFF
// is in exactly one chain; no clock net reaches a scan-in pin or a TSFF
// input-mux b pin; and scan-enable reaches every se pin.
func TestChainInventory(t *testing.T) {
	n := genSmall(t)
	tps, err := tpi.Insert(n, tpi.Options{Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Insert(n, tps, Options{MaxChainLength: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChains() < 2 || len(res.SEBuffers) == 0 {
		t.Fatalf("want several chains and a scan-enable tree, got %d chains, %d buffers", res.NumChains(), len(res.SEBuffers))
	}
	checkInventory(t, "insert", n, tps, res)
	rng := rand.New(rand.NewSource(5))
	pos := make(map[netlist.CellID][2]float64)
	for _, ff := range n.FlipFlops() {
		pos[ff] = [2]float64{rng.Float64() * 1000, float64(rng.Intn(20)) * 3.7}
	}
	Reorder(n, res, func(id netlist.CellID) (float64, float64) { p := pos[id]; return p[0], p[1] })
	checkInventory(t, "reorder", n, tps, res)
}

func checkInventory(t *testing.T, when string, n *netlist.Netlist, tps *tpi.Result, res *Result) {
	t.Helper()
	if err := n.Validate(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	isClock := func(net netlist.NetID) bool {
		pi := n.Nets[net].PI
		return pi >= 0 && n.PIs[pi].Clock
	}
	piNamed := map[string]netlist.NetID{}
	for _, pi := range n.PIs {
		piNamed[pi.Name] = pi.Net
	}
	poNamed := map[string]netlist.NetID{}
	for _, po := range n.POs {
		poNamed[po.Name] = po.Net
	}
	inChain := map[netlist.CellID]int{}
	for i, c := range res.Chains {
		head := c.Elements[0]
		si, ok := piNamed[fmt.Sprintf("si%d", i)]
		if !ok || c.ScanIn != si || n.Cells[head.SIcell].Ins[head.SIpin] != si {
			t.Errorf("%s: chain %d head reads net %d, want its own scan-in PI si%d (%d, present %v)",
				when, i, n.Cells[head.SIcell].Ins[head.SIpin], i, si, ok)
		}
		last := n.Cells[c.Elements[len(c.Elements)-1].FF].Out
		if so, ok := poNamed[fmt.Sprintf("so%d", i)]; !ok || so != last || c.ScanOut != last {
			t.Errorf("%s: chain %d ends in net %d, but PO so%d is net %d (present %v)", when, i, last, i, so, ok)
		}
		for k, e := range c.Elements {
			inChain[e.FF]++
			if k > 0 {
				if prev := n.Cells[c.Elements[k-1].FF].Out; n.Cells[e.SIcell].Ins[e.SIpin] != prev {
					t.Errorf("%s: chain %d element %d does not read the previous element's output", when, i, k)
				}
			}
		}
	}
	for _, ff := range n.FlipFlops() {
		if inChain[ff] != 1 {
			t.Errorf("%s: flip-flop %s is in %d chains, want 1", when, n.Cells[ff].Name, inChain[ff])
		}
	}
	if len(inChain) != n.NumFlipFlops() {
		t.Errorf("%s: chains hold %d distinct cells, want the %d flip-flops", when, len(inChain), n.NumFlipFlops())
	}
	// fromSE reports whether net is scan-enable, directly or through the
	// scan-enable buffer tree.
	fromSE := func(net netlist.NetID) bool {
		for {
			if net == res.SE {
				return true
			}
			d := n.Nets[net].Driver
			if d == netlist.NoCell || n.Cells[d].Tag != netlist.TagSEBuffer {
				return false
			}
			net = n.Cells[d].Ins[0]
		}
	}
	for _, ff := range n.FlipFlops() {
		c := &n.Cells[ff]
		if si := c.Cell.FindInput("si"); si >= 0 && isClock(c.Ins[si]) {
			t.Errorf("%s: clock net reaches the si pin of %s", when, c.Name)
		}
		if se := c.Cell.FindInput("se"); se >= 0 && !fromSE(c.Ins[se]) {
			t.Errorf("%s: the se pin of %s is not driven by scan-enable", when, c.Name)
		}
	}
	for _, tp := range tps.Points {
		im := &n.Cells[tp.InMux]
		if b := im.Cell.FindInput("b"); isClock(im.Ins[b]) {
			t.Errorf("%s: clock net reaches the b pin of TSFF input mux %s", when, im.Name)
		}
	}
}
