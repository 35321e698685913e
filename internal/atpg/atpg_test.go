package atpg

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/telemetry"
)

// randCircuit builds a deterministic random combinational circuit with
// nPI inputs and nGates gates.
func randCircuit(t testing.TB, seed int64, nPI, nGates int) *netlist.Netlist {
	t.Helper()
	lib := stdcell.Default()
	n := netlist.New("rnd", lib)
	rng := rand.New(rand.NewSource(seed))
	var pool []netlist.NetID
	for i := 0; i < nPI; i++ {
		pool = append(pool, n.AddPI("pi"))
	}
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
	// Observe the last few gates.
	for i := 0; i < 4 && i < len(pool); i++ {
		n.AddPO("po", pool[len(pool)-1-i])
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// bruteForceDetects exhaustively checks (for nPI <= 6 inputs) which input
// combinations detect fault f, by structural injection into a parallel
// simulation. Returns the detection word over all 2^nPI combinations.
func bruteForceDetects(t testing.TB, n *netlist.Netlist, f fault.Fault) uint64 {
	t.Helper()
	nPI := len(n.PIs)
	if nPI > 6 {
		t.Fatal("bruteForceDetects: too many PIs")
	}
	good, err := logicsim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := logicsim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	for i, pi := range n.PIs {
		var w uint64
		for v := 0; v < 64; v++ {
			if v>>i&1 == 1 {
				w |= 1 << v
			}
		}
		good.SetNet(pi.Net, w)
		bad.SetNet(pi.Net, w)
	}
	good.Propagate()
	// Faulty propagation: recompute with an override at the fault site.
	sa := uint64(0)
	if f.SA == 1 {
		sa = ^uint64(0)
	}
	fan := n.CSR()
	var fCell netlist.CellID = netlist.NoCell
	fPin := -1
	if f.Load != fault.StemLoad {
		ld := fan.Fanout(f.Net)[f.Load]
		fCell = ld.Cell
		fPin = int(ld.Pin)
	}
	lv, err := n.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	if fCell == netlist.NoCell {
		bad.SetNet(f.Net, sa)
	}
	for _, ci := range lv.Order {
		c := &n.Cells[ci]
		var ins [8]uint64
		for pin, net := range c.Ins {
			w := bad.Get(net)
			if netlist.CellID(ci) == fCell && pin == fPin {
				w = sa
			}
			ins[pin] = w
		}
		out := logicsim.EvalWords(c.Cell.Kind, ins[:len(c.Ins)])
		if fCell == netlist.NoCell && c.Out == f.Net {
			out = sa
		}
		bad.SetNet(c.Out, out)
	}
	mask := uint64(1)<<uint(1<<uint(nPI)) - 1
	if nPI == 6 {
		mask = ^uint64(0)
	}
	var det uint64
	for _, po := range n.POs {
		if f.Load != fault.StemLoad && fCell == netlist.NoCell {
			// Branch fault directly on this PO tap.
			if tap := fan.Fanout(f.Net)[f.Load].PO; tap >= 0 && n.POs[tap].Net == po.Net {
				det |= (good.Get(po.Net) ^ sa) & mask
			}
			continue
		}
		det |= (good.Get(po.Net) ^ bad.Get(po.Net)) & mask
	}
	return det
}

// TestPodemAgainstBruteForce verifies, fault by fault, that PODEM's
// verdict (testable/untestable) matches exhaustive simulation and that
// every generated pattern actually detects its target: on combinational
// circuits at the default limits, where every class must be resolved, and
// (subtest scan) on scan circuits at a limit that makes searches abort.
func TestPodemAgainstBruteForce(t *testing.T) {
	t.Run("scan", testScanAgainstOracle)
	for seed := int64(1); seed <= 8; seed++ {
		n := randCircuit(t, seed, 5, 30)
		set := fault.NewUniverse(n)
		v, err := NewView(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		fs := newFaultSim(context.Background(), v, nil)
		res, err := RunContext(context.Background(), n, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		for _, r := range set.Reps() {
			f := set.Faults[r]
			want := bruteForceDetects(t, n, f) != 0
			got := set.Status(r)
			switch {
			case want && got != fault.Detected:
				t.Errorf("seed %d: fault %+v (%s) is testable but ATPG says %v",
					seed, f, n.Nets[f.Net].Name, got)
			case !want && got == fault.Detected:
				t.Errorf("seed %d: fault %+v is untestable but ATPG claims detection", seed, f)
			}
		}
		// Every kept pattern must be verifiable by the fault simulator.
		if len(res.Patterns) == 0 {
			t.Fatalf("seed %d: no patterns generated", seed)
		}
		fresh := fault.NewUniverse(n)
		for lo := 0; lo < len(res.Patterns); lo += 64 {
			batch := fs.NewBatch()
			for i := lo; i < len(res.Patterns) && i < lo+64; i++ {
				batch.SetPattern(i-lo, res.Patterns[i])
			}
			fs.SimGood(batch)
			for _, r := range fresh.Reps() {
				if fs.Detects(fresh.Faults[r], batch) != 0 {
					fresh.SetStatus(r, fault.Detected)
				}
			}
		}
		for _, r := range set.Reps() {
			if set.Status(r) == fault.Detected && fresh.Status(r) != fault.Detected {
				t.Errorf("seed %d: compacted set lost coverage of %+v", seed, set.Faults[r])
			}
		}
	}
}

// TestRedundantFaultProven uses the classic redundancy z = a·b + a·¬b
// (logically z = a): the sa1 on the b-branch into the first AND is
// undetectable and must be proven untestable, not aborted.
func TestRedundantFaultProven(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("red", lib)
	a := n.AddPI("a")
	b := n.AddPI("b")
	nb := n.AddNet("nb")
	t1 := n.AddNet("t1")
	t2 := n.AddNet("t2")
	z := n.AddNet("z")
	n.AddCell("inv", lib.MustCell("INVX1"), []netlist.NetID{b}, nb)
	g1 := n.AddCell("g1", lib.MustCell("AND2X1"), []netlist.NetID{a, b}, t1)
	n.AddCell("g2", lib.MustCell("AND2X1"), []netlist.NetID{a, nb}, t2)
	n.AddCell("g3", lib.MustCell("OR2X1"), []netlist.NetID{t1, t2}, z)
	n.AddPO("z", z)

	set := fault.NewUniverse(n)
	if _, err := RunContext(context.Background(), n, set, Options{}); err != nil {
		t.Fatal(err)
	}
	// Find the b-branch into g1, stuck-at-1.
	fan := n.CSR()
	found := false
	for i, f := range set.Faults {
		if f.Net != b || f.SA != 1 || f.Load == fault.StemLoad {
			continue
		}
		if ld := fan.Fanout(b)[f.Load]; ld.Cell == g1 {
			found = true
			if st := set.Status(int32(i)); st != fault.Untestable {
				t.Errorf("redundant fault classified %v, want untestable", st)
			}
		}
	}
	if !found {
		t.Fatal("b→g1 branch fault not in universe")
	}
}

func TestConstraintsExcludeSources(t *testing.T) {
	lib := stdcell.Default()
	n := netlist.New("c", lib)
	a := n.AddPI("a")
	se := n.AddPI("se")
	y := n.AddNet("y")
	n.AddCell("g", lib.MustCell("AND2X1"), []netlist.NetID{a, se}, y)
	n.AddPO("y", y)
	v, err := NewView(n, map[netlist.NetID]int8{se: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Sources) != 1 || v.Sources[0] != a {
		t.Fatalf("sources = %v, want [a]", v.Sources)
	}
	if v.ConstVal[se] != 0 {
		t.Error("constraint not recorded")
	}
}

func TestRunOnGeneratedCircuit(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.06), lib)
	if err != nil {
		t.Fatal(err)
	}
	set := fault.NewUniverse(n)
	res, err := RunContext(context.Background(), n, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fc, fe := set.Coverage()
	if fc < 0.92 {
		t.Errorf("FC = %.3f, want >= 0.92", fc)
	}
	if fe < fc {
		t.Errorf("FE (%.3f) must be >= FC (%.3f)", fe, fc)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	t.Logf("cells=%d faults=%d classes=%d patterns=%d FC=%.2f%% FE=%.2f%% aborted=%d untestable=%d",
		n.NumLiveCells(), set.Total(), set.NumClasses(), len(res.Patterns),
		fc*100, fe*100, res.AbortedClasses, res.UntestableClasses)
}

// TestCompactionNeverLosesCoverage hands reverse-order compaction an
// uncompacted random set: what it keeps must be no larger and must detect
// every class the whole set detects.
func TestCompactionNeverLosesCoverage(t *testing.T) {
	n := randCircuit(t, 42, 6, 60)
	v, err := NewView(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim := newFaultSim(context.Background(), v, nil)
	rng := rand.New(rand.NewSource(42))
	var all []Pattern
	for i := 0; i < 200; i++ {
		p := make(Pattern, len(v.Sources))
		for j := range p {
			p[j] = -1
		}
		fillRandom(p, rng)
		all = append(all, p)
	}
	set := fault.NewUniverse(n)
	reps := set.Reps()
	for _, r := range reps {
		set.SetStatus(r, fault.Detected)
	}
	want := sim.coveredBy(all, set, reps)
	detected := 0
	for i, r := range reps {
		if !want[i] {
			set.SetStatus(r, fault.Undetected)
		} else {
			detected++
		}
	}
	kept, _ := compactReverse(sim, set, reps, append([]Pattern(nil), all...))
	if len(kept) > len(all) || len(kept) == 0 {
		t.Fatalf("compaction kept %d of %d patterns", len(kept), len(all))
	}
	got := sim.coveredBy(kept, set, reps)
	for i, r := range reps {
		if want[i] && !got[i] {
			t.Errorf("compaction lost coverage of %+v", set.Faults[r])
		}
	}
	t.Logf("%d classes detected, %d of %d patterns kept", detected, len(kept), len(all))
}

// TestDynamicCompactionPaysOff is the first inequality of the
// dynamic-compaction ablation: on the circuit of TestRunOnGeneratedCircuit,
// targeting secondary faults into each cube must give strictly fewer
// patterns at no loss of fault coverage.
func TestDynamicCompactionPaysOff(t *testing.T) {
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.06), stdcell.Default())
	if err != nil {
		t.Fatal(err)
	}
	run := func(noDyn bool) (int, float64) {
		set := fault.NewUniverse(n)
		res, err := RunContext(context.Background(), n, set, Options{noDynamicCompaction: noDyn})
		if err != nil {
			t.Fatal(err)
		}
		fc, _ := set.Coverage()
		return len(res.Patterns), fc
	}
	on, fcOn := run(false)
	off, fcOff := run(true)
	t.Logf("patterns %d with dynamic compaction, %d without; FC %.2f%% vs %.2f%%", on, off, fcOn*100, fcOff*100)
	if on >= off {
		t.Errorf("dynamic compaction gave %d patterns, not fewer than %d without", on, off)
	}
	if fcOn < fcOff {
		t.Errorf("dynamic compaction lowered FC: %.4f < %.4f", fcOn, fcOff)
	}
}

// tracedRun runs the generator with a telemetry span on it and returns the
// span's finished record beside the result.
func tracedRun(t *testing.T, n *netlist.Netlist, opt Options) (*Result, *fault.Set, telemetry.SpanRecord) {
	t.Helper()
	var events []telemetry.Event
	sp := telemetry.New(telemetry.FuncSink(func(e telemetry.Event) { events = append(events, e) })).StartSpan("atpg", 0)
	opt.Telemetry = sp
	set := fault.NewUniverse(n)
	res, err := RunContext(context.Background(), n, set, opt)
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	trace := telemetry.TraceFromEvents(events)
	if len(trace.Spans) != 1 {
		t.Fatalf("traced run recorded %d spans, want 1", len(trace.Spans))
	}
	return res, set, trace.Spans[0]
}

// TestPhaseHistograms: with telemetry on, the stage span carries one
// atpg.dyncomp_ns sample per compacted cube, one atpg.compact_ns sample
// per static pass (top-up coverage check, reverse compaction) and one
// atpg.prescreen_ns sample, and the four timed phases fit inside the
// span.
func TestPhaseHistograms(t *testing.T) {
	n := randCircuit(t, 42, 6, 60)
	_, _, snap := tracedRun(t, n, Options{})
	dyn, compact, podem := snap.Hists["atpg.dyncomp_ns"], snap.Hists["atpg.compact_ns"], snap.Hists["atpg.podem_ns"]
	screen := snap.Hists["atpg.prescreen_ns"]
	if screen.Count != 1 {
		t.Errorf("atpg.prescreen_ns has %d samples, want 1", screen.Count)
	}
	if dyn.Count == 0 || dyn.Count > podem.Count {
		t.Errorf("atpg.dyncomp_ns has %d samples for %d PODEM targets, want one per successful target", dyn.Count, podem.Count)
	}
	if compact.Count != 2 {
		t.Errorf("atpg.compact_ns has %d samples, want 2 (coveredBy, compactReverse)", compact.Count)
	}
	if sum := time.Duration(dyn.Sum + compact.Sum + podem.Sum + screen.Sum); sum > snap.Duration {
		t.Errorf("timed phases add up to %v, more than the %v span around them", sum, snap.Duration)
	}
}
