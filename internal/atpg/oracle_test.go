package atpg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tpilayout/internal/fault"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// randScanCircuit builds a deterministic random full-scan circuit: nPI
// functional inputs, nFF scan flip-flops on one chain (scan-in si, shared
// scan-enable se, clock clk), nGates random gates over inputs and
// flip-flop outputs, flip-flop d pins tapping the late gates, and a primary
// output on every gate nothing else reads. It returns the capture-mode constraint se = 0, under which
// the view has nPI + nFF + 1 sources.
func randScanCircuit(t testing.TB, seed int64, nPI, nFF, nGates int) (*netlist.Netlist, map[netlist.NetID]int8) {
	t.Helper()
	lib := stdcell.Default()
	n := netlist.New("rndscan", lib)
	rng := rand.New(rand.NewSource(seed))
	clk, dom := n.AddClockPI("clk", 10000)
	se, si := n.AddPI("se"), n.AddPI("si")
	var pool, qs []netlist.NetID
	for i := 0; i < nPI; i++ {
		pool = append(pool, n.AddPI("pi"))
	}
	for i := 0; i < nFF; i++ {
		qs = append(qs, n.AddNet("q"))
	}
	pool = append(pool, qs...)
	kinds := []string{"NAND2X1", "NOR2X1", "AND2X1", "OR2X1", "XOR2X1", "INVX1", "MUX2X1", "AOI21X1", "OAI21X1"}
	for i := 0; i < nGates; i++ {
		cell := lib.MustCell(kinds[rng.Intn(len(kinds))])
		ins := make([]netlist.NetID, len(cell.Inputs))
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		out := n.AddNet("w")
		n.AddCell("g", cell, ins, out)
		pool = append(pool, out)
	}
	late := pool[len(pool)-nGates/2:]
	for i, q := range qs {
		ff := n.AddCell("ff", lib.MustCell("SDFFX1"), []netlist.NetID{late[rng.Intn(len(late))], si, se, clk}, q)
		n.Cells[ff].Domain = dom
		si = qs[i]
	}
	n.AddPO("so", si)
	csr := n.CSR()
	for net := range n.Nets {
		if csr.FanoutLen(netlist.NetID(net)) == 0 && n.Nets[net].Driver != netlist.NoCell {
			n.AddPO("po", netlist.NetID(net))
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, map[netlist.NetID]int8{se: 0}
}

// scalarOracle decides detection one pattern and one fault at a time, from
// the netlist alone: boolean values, a switch on the cell kind, structural
// fault injection, observation at primary outputs and flip-flop d pins. It
// shares no code with the view, the PODEM simulator, logicsim or the fault
// simulator; only the order of pattern bits (view sources) is taken over.
type scalarOracle struct {
	n       *netlist.Netlist
	order   []netlist.CellID
	fan     *netlist.CSR
	sources []netlist.NetID
	fixed   map[netlist.NetID]int8
	ffs     []netlist.CellID
	val     []bool // scratch: one value per net
}

func newScalarOracle(t testing.TB, n *netlist.Netlist, sources []netlist.NetID, fixed map[netlist.NetID]int8) *scalarOracle {
	lv, err := n.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	return &scalarOracle{n: n, order: lv.Order, fan: n.CSR(), sources: sources, fixed: fixed,
		ffs: n.FlipFlops(), val: make([]bool, len(n.Nets))}
}

func evalScalar(kind stdcell.Kind, in []bool) bool {
	switch kind {
	case stdcell.KindInv:
		return !in[0]
	case stdcell.KindBuf:
		return in[0]
	case stdcell.KindAnd, stdcell.KindNand:
		all := true
		for _, x := range in {
			all = all && x
		}
		return all != (kind == stdcell.KindNand)
	case stdcell.KindOr, stdcell.KindNor:
		any := false
		for _, x := range in {
			any = any || x
		}
		return any != (kind == stdcell.KindNor)
	case stdcell.KindXor:
		return in[0] != in[1]
	case stdcell.KindXnor:
		return in[0] == in[1]
	case stdcell.KindAoi21:
		return !(in[0] && in[1] || in[2])
	case stdcell.KindOai21:
		return !((in[0] || in[1]) && in[2])
	case stdcell.KindMux2:
		if in[2] {
			return in[1]
		}
		return in[0]
	}
	panic("evalScalar: not a logic cell")
}

// observe simulates one pattern (bit i drives source i) with fault f
// injected, or fault-free when f is nil, and returns the values the tester
// sees: one per primary output, then one per flip-flop d pin.
func (o *scalarOracle) observe(bit func(i int) bool, f *fault.Fault) []bool {
	val := o.val
	for i := range o.n.Nets {
		val[i] = o.n.Nets[i].Const == 1
	}
	for net, c := range o.fixed {
		val[net] = c == 1
	}
	for i, src := range o.sources {
		val[src] = bit(i)
	}
	// pinOf is the site of a branch fault; a stem fault overrides its net.
	var pinOf netlist.Load
	stem, branch := false, false
	if f != nil {
		stem = f.Load == fault.StemLoad
		if branch = !stem; branch {
			pinOf = o.fan.Fanout(f.Net)[f.Load]
		}
	}
	sa := f != nil && f.SA == 1
	if stem {
		val[f.Net] = sa
	}
	var ins [8]bool
	for _, ci := range o.order {
		c := &o.n.Cells[ci]
		for pin, net := range c.Ins {
			ins[pin] = val[net]
			if branch && pinOf.Cell == ci && int(pinOf.Pin) == pin {
				ins[pin] = sa
			}
		}
		if out := evalScalar(c.Cell.Kind, ins[:len(c.Ins)]); !(stem && c.Out == f.Net) {
			val[c.Out] = out
		}
	}
	var seen []bool
	for k, po := range o.n.POs {
		v := val[po.Net]
		if branch && pinOf.Cell == netlist.NoCell && int(pinOf.PO) == k {
			v = sa
		}
		seen = append(seen, v)
	}
	for _, ff := range o.ffs {
		c := &o.n.Cells[ff]
		di := c.Cell.FindInput("d")
		v := val[c.Ins[di]]
		if branch && pinOf.Cell == ff && int(pinOf.Pin) == di {
			v = sa
		}
		seen = append(seen, v)
	}
	return seen
}

// detects reports whether the pattern tells fault f from the good circuit,
// whose observed values under the same pattern are good.
func (o *scalarOracle) detects(bit func(i int) bool, good []bool, f fault.Fault) bool {
	return !slices.Equal(good, o.observe(bit, &f))
}

// checkAgainstOracle holds a finished run to the scalar oracle: every
// class the run calls untestable must be undetected by every one of the
// 2^sources input combinations, and every class it calls detected must be
// detected by a pattern of the final, compacted set.
func checkAgainstOracle(t *testing.T, label string, n *netlist.Netlist, set *fault.Set, res *Result, fixed map[netlist.NetID]int8) {
	t.Helper()
	o := newScalarOracle(t, n, res.View.Sources, fixed)
	nsrc := len(res.View.Sources)
	if nsrc > 14 {
		t.Fatalf("%s: %d sources is too many to enumerate", label, nsrc)
	}
	var untestable []fault.Fault
	for _, r := range set.Reps() {
		f := set.Faults[r]
		switch set.Status(r) {
		case fault.Untestable:
			untestable = append(untestable, f)
		case fault.Detected:
			if !slices.ContainsFunc(res.Patterns, func(p Pattern) bool {
				bit := func(i int) bool { return p[i] == 1 }
				return o.detects(bit, o.observe(bit, nil), f)
			}) {
				t.Errorf("%s: %+v (%s) is called detected, but none of the %d final patterns detects it",
					label, f, n.Nets[f.Net].Name, len(res.Patterns))
			}
		}
	}
	for word := 0; word < 1<<nsrc && len(untestable) > 0; word++ {
		bit := func(i int) bool { return word>>i&1 == 1 }
		good := o.observe(bit, nil)
		for _, f := range untestable {
			if o.detects(bit, good, f) {
				t.Fatalf("%s: %+v (%s) is called untestable, but input combination %#x detects it",
					label, f, n.Nets[f.Net].Name, word)
			}
		}
	}
}

// testScanAgainstOracle is the sequential half of
// TestPodemAgainstBruteForce: the whole generator on random scan circuits
// of 6 to 14 sources with a backtrack limit of 4 — low enough that searches
// abort, the SAT pass settles them and the top-up re-targets — with every
// verdict checked by exhaustive scalar simulation.
func testScanAgainstOracle(t *testing.T) {
	shapes := []struct{ nPI, nFF, nGates int }{
		{3, 2, 20}, {4, 3, 30}, {5, 4, 40}, {6, 5, 50}, {7, 6, 60}, {4, 9, 60},
	}
	var satCalls, resolved int64
	untestable := 0
	for seed := int64(1); seed <= 6; seed++ {
		sh := shapes[int(seed)%len(shapes)]
		n, fixed := randScanCircuit(t, seed, sh.nPI, sh.nFF, sh.nGates)
		res, set, snap := tracedRun(t, n, Options{Constraints: fixed, backtracks: 4})
		if got, want := len(res.View.Sources), sh.nPI+sh.nFF+1; got != want {
			t.Fatalf("seed %d: %d sources, want %d", seed, got, want)
		}
		checkAgainstOracle(t, fmt.Sprintf("seed %d", seed), n, set, res, fixed)
		untestable += res.UntestableClasses
		satCalls += snap.Hists["atpg.sat_ns"].Count
		resolved += snap.Counters["atpg.sat_resolved"]
	}
	t.Logf("%d SAT calls on first-pass aborts, %d settled, %d untestable, over all seeds", satCalls, resolved, untestable)
	if satCalls == 0 || resolved == 0 || untestable == 0 {
		t.Errorf("want first-pass aborts settled by SAT and untestable verdicts (for the oracle to confirm)")
	}
}
