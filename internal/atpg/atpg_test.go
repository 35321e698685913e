package atpg

import (
	"context"
	"math/rand"
	"reflect"
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
		fPin = ld.Pin
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
		fs := NewFaultSim(v)
		res, err := Run(n, set, Options{FillSeed: seed})
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
				if fs.Detects(fresh.Faults[r], batch, true) != 0 {
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
	if _, err := Run(n, set, Options{}); err != nil {
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
	res, err := Run(n, set, Options{})
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

func TestCompactionNeverLosesCoverage(t *testing.T) {
	n := randCircuit(t, 42, 6, 60)
	setA := fault.NewUniverse(n)
	resA, err := Run(n, setA, Options{NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	setB := fault.NewUniverse(n)
	resB, err := Run(n, setB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resB.Patterns) > len(resA.Patterns) {
		t.Errorf("compaction grew the pattern set: %d > %d", len(resB.Patterns), len(resA.Patterns))
	}
	fcA, _ := setA.Coverage()
	fcB, _ := setB.Coverage()
	if fcB < fcA {
		t.Errorf("compaction lost coverage: %.4f < %.4f", fcB, fcA)
	}
}

// TestRunWorkersDeterministic pins down the fault-parallel merge rule:
// Run with sharded fault simulation must produce the exact same pattern
// set and per-class statuses as a serial run, for any worker count.
func TestRunWorkersDeterministic(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.04), lib)
	if err != nil {
		t.Fatal(err)
	}
	var refPatterns []Pattern
	var refCounts map[fault.Status]int
	for _, w := range []int{1, 2, 5} {
		set := fault.NewUniverse(n)
		res, err := Run(n, set, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if refPatterns == nil {
			refPatterns, refCounts = res.Patterns, set.Counts()
			continue
		}
		if !reflect.DeepEqual(refPatterns, res.Patterns) {
			t.Fatalf("workers=%d produced a different pattern set (%d vs %d patterns)",
				w, len(res.Patterns), len(refPatterns))
		}
		if !reflect.DeepEqual(refCounts, set.Counts()) {
			t.Fatalf("workers=%d produced different fault statuses: %v vs %v",
				w, set.Counts(), refCounts)
		}
	}
}

// TestSimPoolShardsMatchSerial compares raw shard detection words against
// a serial FaultSim on random batches: the shards alias the same good
// plane, so every Detects word must be identical.
func TestSimPoolShardsMatchSerial(t *testing.T) {
	n := randCircuit(t, 7, 6, 80)
	v, err := NewView(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := fault.NewUniverse(n)
	serial := NewFaultSim(v)
	pool := newSimPool(context.Background(), v, 3)
	rng := rand.New(rand.NewSource(11))

	reps := set.Reps()
	got := make([]uint64, len(reps))
	for round := 0; round < 4; round++ {
		batch := serial.NewBatch()
		vals := make([]int8, len(v.Sources))
		for bit := 0; bit < 64; bit++ {
			for i := range vals {
				vals[i] = int8(rng.Intn(2))
			}
			batch.SetPattern(bit, vals)
		}
		serial.SimGood(batch)
		pool.SimGood(batch)
		pool.detectEach(reps, set, batch, false, func(int32) bool { return true }, got)
		for i, r := range reps {
			want := serial.Detects(set.Faults[r], batch, false)
			if got[i] != want {
				t.Fatalf("round %d fault %d: pool word %#x != serial word %#x", round, r, got[i], want)
			}
		}
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
	res, err := Run(n, set, opt)
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

// TestRetryFactorDefault pins what Options.RetryFactor's comment says: 0
// means 4, and a negative value opens no retry pass.
func TestRetryFactorDefault(t *testing.T) {
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.03), stdcell.Default())
	if err != nil {
		t.Fatal(err)
	}
	// No random phase, so no top-up either: every PODEM target is a first-
	// pass or a retry target.
	run := func(factor int) (*Result, map[fault.Status]int, int64) {
		res, set, snap := tracedRun(t, n, Options{BacktrackLimit: 8, RetryFactor: factor, RandomRounds: -1})
		return res, set.Counts(), snap.Counters["atpg.podem_targets"]
	}
	def, defCounts, defTargets := run(0)
	four, fourCounts, fourTargets := run(4)
	if !reflect.DeepEqual(def.Patterns, four.Patterns) || !reflect.DeepEqual(defCounts, fourCounts) || defTargets != fourTargets {
		t.Errorf("RetryFactor 0 (%d patterns, %v, %d targets) != RetryFactor 4 (%d patterns, %v, %d targets)",
			len(def.Patterns), defCounts, defTargets, len(four.Patterns), fourCounts, fourTargets)
	}
	none, _, noneTargets := run(-1)
	if none.AbortedClasses == 0 {
		t.Fatal("no class aborts at limit 8: the circuit cannot tell a retry from none")
	}
	if noneTargets > int64(none.FaultClasses) {
		t.Errorf("RetryFactor -1 made %d PODEM targets of %d classes: some class was targeted twice", noneTargets, none.FaultClasses)
	}
	if defTargets <= noneTargets || defTargets > noneTargets+int64(none.AbortedClasses) {
		t.Errorf("RetryFactor 0 made %d targets, want the %d of the first pass plus at most its %d aborted classes",
			defTargets, noneTargets, none.AbortedClasses)
	}
	if def.AbortedClasses > none.AbortedClasses {
		t.Errorf("the retry pass left more classes aborted (%d) than no retry (%d)", def.AbortedClasses, none.AbortedClasses)
	}
}

// TestPhaseHistograms: with telemetry on, the stage span carries one
// atpg.dyncomp_ns sample per compacted cube and one atpg.compact_ns sample
// per static pass (top-up coverage check, reverse compaction), and the
// three timed phases fit inside the span.
func TestPhaseHistograms(t *testing.T) {
	n := randCircuit(t, 42, 6, 60)
	_, _, snap := tracedRun(t, n, Options{})
	dyn, compact, podem := snap.Hists["atpg.dyncomp_ns"], snap.Hists["atpg.compact_ns"], snap.Hists["atpg.podem_ns"]
	if dyn.Count == 0 || dyn.Count > podem.Count {
		t.Errorf("atpg.dyncomp_ns has %d samples for %d PODEM targets, want one per successful target", dyn.Count, podem.Count)
	}
	if compact.Count != 2 {
		t.Errorf("atpg.compact_ns has %d samples, want 2 (coveredBy, compactReverse)", compact.Count)
	}
	if sum := time.Duration(dyn.Sum + compact.Sum + podem.Sum); sum > snap.Duration {
		t.Errorf("timed phases add up to %v, more than the %v span around them", sum, snap.Duration)
	}
}
