package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/testability"
)

// decodeCNF reads a CNF of at most 12 variables from fuzz bytes: the first
// byte sizes the variables, then each clause is a length byte (1–4
// literals) followed by one byte per literal.
func decodeCNF(data []byte) (int, [][]lit) {
	if len(data) == 0 {
		return 1, nil
	}
	nv := 1 + int(data[0])%12
	var cnf [][]lit
	for i := 1; i < len(data); {
		k := 1 + int(data[i])%4
		i++
		var c []lit
		for ; k > 0 && i < len(data); k-- {
			c = append(c, lit(int(data[i])%(2*nv)))
			i++
		}
		cnf = append(cnf, c)
	}
	return nv, cnf
}

// bruteSAT reports whether some assignment of nv variables satisfies cnf.
func bruteSAT(nv int, cnf [][]lit) bool {
	for a := 0; a < 1<<nv; a++ {
		if satisfies(a, cnf) {
			return true
		}
	}
	return false
}

// satisfies reports whether the assignment a (bit v = variable v's value)
// satisfies every clause of cnf.
func satisfies(a int, cnf [][]lit) bool {
	for _, c := range cnf {
		sat := false
		for _, l := range c {
			if (a>>l.vr()&1 == 1) == (l&1 == 0) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// TestGateClausesMatchEvalWords holds miter.gate's Tseitin clauses for
// every gate shape of the library to the two-valued gate model: on every
// 0/1 input, the output logicsim.EvalWords computes satisfies all of them
// and its complement violates one.
func TestGateClausesMatchEvalWords(t *testing.T) {
	type shape struct {
		kind stdcell.Kind
		nin  int
	}
	seen := map[shape]bool{}
	for _, c := range stdcell.Default().Cells() {
		sh := shape{c.Kind, len(c.Inputs)}
		if sh.kind.IsSequential() || sh.kind.IsPhysicalOnly() || seen[sh] {
			continue
		}
		seen[sh] = true
		// Variable 0 is the output, variable p+1 input pin p.
		var m miter
		m.sat.reset()
		y := posLit(m.sat.newVar())
		in := make([]lit, sh.nin)
		for p := range in {
			in[p] = posLit(m.sat.newVar())
		}
		m.gate(sh.kind, y, in)
		var cnf [][]lit
		for ci := int32(0); ci < int32(len(m.sat.start)-1); ci++ {
			cnf = append(cnf, m.sat.clause(ci))
		}
		words := make([]uint64, sh.nin)
		for a := 0; a < 1<<sh.nin; a++ {
			for p := range words {
				words[p] = uint64(a>>p) & 1
			}
			out := int(logicsim.EvalWords(sh.kind, words) & 1)
			if !satisfies(out|a<<1, cnf) {
				t.Errorf("%v/%d on inputs %0*b: y = %d violates the clauses", sh.kind, sh.nin, sh.nin, a, out)
			}
			if satisfies((1-out)|a<<1, cnf) {
				t.Errorf("%v/%d on inputs %0*b: y = %d satisfies the clauses", sh.kind, sh.nin, sh.nin, a, 1-out)
			}
		}
	}
	t.Logf("%d gate shapes", len(seen))
}

// solveCNF loads cnf into s and solves it without a budget.
func solveCNF(s *satSolver, nv int, cnf [][]lit) satResult {
	s.reset()
	for i := 0; i < nv; i++ {
		s.newVar()
	}
	for _, c := range cnf {
		s.addClause(append([]lit(nil), c...)...)
	}
	return s.solve(1 << 30)
}

// FuzzSAT holds the solver to brute force on random CNFs of at most 12
// variables: the verdict matches, a model satisfies every clause, and an
// UNSAT answer's learnt clauses pass drupCheck against the CNF as given.
// Each formula is solved on arenas a previous call left behind.
func FuzzSAT(f *testing.F) {
	// Three pigeons in two holes: x(p,h) = 2p+h.
	f.Add([]byte{5, 1, 0, 1, 1, 2, 3, 1, 4, 5, 1, 1, 5, 1, 1, 9, 1, 1, 3, 1, 1, 7, 1, 3, 11})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		data := make([]byte, 8+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s satSolver
		solveCNF(&s, 3, [][]lit{{0, 2}, {1, 3}, {4}, {1, 5}})
		nv, cnf := decodeCNF(data)
		got := solveCNF(&s, nv, cnf)
		want := bruteSAT(nv, cnf)
		switch {
		case got == satUnknown:
			t.Fatalf("unbudgeted solve returned unknown on %v", cnf)
		case (got == satSat) != want:
			t.Fatalf("solver says %v, brute force satisfiable = %v, on %d vars %v", got, want, nv, cnf)
		case got == satSat:
			for _, c := range cnf {
				sat := false
				for _, l := range c {
					sat = sat || s.value(l)
				}
				if !sat {
					t.Fatalf("model violates clause %v of %v", c, cnf)
				}
			}
		default:
			_, lemmas := s.proof()
			if err := drupCheck(nv, cnf, lemmas); err != nil {
				t.Fatalf("UNSAT proof of %v rejected: %v", cnf, err)
			}
		}
	})
}

// satChecker judges the miter's verdicts on one circuit without trusting
// the solver: a SAT cube must detect its fault in the PODEM simulator, in
// the fault simulator and in the scalar oracle (don't-cares filled both ways), and an
// UNSAT answer must come with a proof drupCheck accepts.
type satChecker struct {
	t      *testing.T
	label  string
	v      *View
	m      *miter
	gen    *podem
	fs     *faultSim
	oracle *scalarOracle
	counts map[satResult]int
}

func newSATChecker(t *testing.T, label string, n *netlist.Netlist, fixed map[netlist.NetID]int8, limit int) *satChecker {
	v, err := NewView(n, fixed)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := testability.Analyze(n, testability.Options{Constraints: fixed})
	if err != nil {
		t.Fatal(err)
	}
	fs := newFaultSim(context.Background(), v, nil)
	return &satChecker{t: t, label: label, v: v, m: newMiter(v), gen: newPodem(v, ta, limit), fs: fs,
		oracle: newScalarOracle(t, n, v.Sources, fixed), counts: map[satResult]int{}}
}

// check solves the miter of f under budget and verifies the verdict.
func (c *satChecker) check(f fault.Fault, budget int) satResult {
	t := c.t
	t.Helper()
	res := c.m.solve(f, budget)
	c.counts[res]++
	switch res {
	case satSat:
		cube := c.m.cube()
		if !c.gen.load(f, cube) {
			t.Fatalf("%s %+v: SAT cube %v does not detect in the PODEM simulator", c.label, f, cube)
		}
		for fill := int8(0); fill <= 1; fill++ {
			pat := append([]int8(nil), cube...)
			for i := range pat {
				if pat[i] < 0 {
					pat[i] = fill
				}
			}
			batch := c.fs.NewBatch()
			batch.SetPattern(0, pat)
			c.fs.SimGood(batch)
			if c.fs.Detects(f, batch) == 0 {
				t.Fatalf("%s %+v: SAT cube (fill %d) does not detect in the fault simulator", c.label, f, fill)
			}
			bit := func(i int) bool { return pat[i] == 1 }
			if !c.oracle.detects(bit, c.oracle.observe(bit, nil), f) {
				t.Fatalf("%s %+v: SAT cube (fill %d) does not detect in the scalar oracle", c.label, f, fill)
			}
		}
	case satUnsat:
		formula, lemmas := c.m.sat.proof()
		if err := drupCheck(len(c.m.sat.level), formula, lemmas); err != nil {
			t.Fatalf("%s %+v: UNSAT proof rejected: %v", c.label, f, err)
		}
	}
	return res
}

// neverDetected holds faults called UNSAT to exhaustive scalar
// simulation: no input combination may detect any of them.
func (c *satChecker) neverDetected(faults []fault.Fault) {
	c.t.Helper()
	for word := 0; word < 1<<len(c.v.Sources) && len(faults) > 0; word++ {
		bit := func(i int) bool { return word>>i&1 == 1 }
		good := c.oracle.observe(bit, nil)
		for _, f := range faults {
			if c.oracle.detects(bit, good, f) {
				c.t.Fatalf("%s: %+v is UNSAT, but input combination %#x detects it", c.label, f, word)
			}
		}
	}
}

// randomPhase credits the capture-dead classes of set and drops what 16
// rounds of 64 random patterns detect, leaving, as in a run, the classes
// random patterns miss.
func (c *satChecker) randomPhase(set *fault.Set) {
	precreditCaptureDead(c.v, set)
	rng := rand.New(rand.NewSource(1))
	batch := c.fs.NewBatch()
	pat := make([]int8, len(c.v.Sources))
	for round := 0; round < 16; round++ {
		for bit := 0; bit < 64; bit++ {
			for i := range pat {
				pat[i] = int8(rng.Intn(2))
			}
			batch.SetPattern(bit, pat)
		}
		c.fs.SimGood(batch)
		for _, r := range set.Reps() {
			if set.Status(r) == fault.Undetected && c.fs.Detects(set.Faults[r], batch) != 0 {
				set.SetStatus(r, fault.Detected)
			}
		}
	}
}

// TestSATAgainstOracle runs the miter on every fault class of the random
// scan circuits testScanAgainstOracle uses, without a budget, and holds
// each verdict to exhaustive scalar simulation: SAT cubes detect (see
// satChecker), and no input combination detects an UNSAT class.
func TestSATAgainstOracle(t *testing.T) {
	shapes := []struct{ nPI, nFF, nGates int }{
		{3, 2, 20}, {4, 3, 30}, {5, 4, 40}, {6, 5, 50}, {7, 6, 60}, {4, 9, 60},
	}
	seeds := int64(6)
	if raceEnabled {
		seeds = 3 // ~15x slower under -race
	}
	for seed := int64(1); seed <= seeds; seed++ {
		sh := shapes[int(seed)%len(shapes)]
		n, fixed := randScanCircuit(t, seed, sh.nPI, sh.nFF, sh.nGates)
		c := newSATChecker(t, fmt.Sprintf("seed %d", seed), n, fixed, 64)
		set := fault.NewUniverse(n)
		var unsat []fault.Fault
		for _, r := range set.Reps() {
			f := set.Faults[r]
			switch c.check(f, 1<<30) {
			case satUnknown:
				t.Fatalf("seed %d %+v: unbudgeted solve returned unknown", seed, f)
			case satUnsat:
				unsat = append(unsat, f)
			}
		}
		c.neverDetected(unsat)
		if c.counts[satSat] == 0 || c.counts[satUnsat] == 0 {
			t.Errorf("seed %d: want both verdicts exercised, got %v", seed, c.counts)
		}
	}
}

// TestSATResidueChecked runs the residue pass's SAT calls, at the run's
// budget, on the paper circuits at golden scale after test point and scan
// insertion and a random-pattern phase: every class PODEM aborts at the
// first pass's limit, and every fourth class it settles. Each verdict is checked (satChecker), an UNSAT
// class must not be one PODEM detects at the retry limit the flow used
// before SAT replaced it (256), and SAT must agree with PODEM wherever
// PODEM decided.
func TestSATResidueChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-scale SAT check")
	}
	specs := []circuitgen.Spec{
		circuitgen.S38417Class().Scale(0.05),
		circuitgen.WirelessCtrlClass().Scale(0.05),
		circuitgen.DSPCoreClass().Scale(0.05),
	}
	if raceEnabled {
		specs = specs[:1] // the golden circuit alone: ~13x slower under -race
	}
	for _, spec := range specs {
		n, fixed := goldenScanCircuit(t, spec, 4)
		c := newSATChecker(t, spec.Name, n, fixed, 64)
		set := fault.NewUniverse(n)
		c.randomPhase(set)
		retry := newPodem(c.v, c.gen.ta, 256)
		aborted, settled, targets := 0, 0, 0
		for _, r := range set.Reps() {
			if set.Status(r) != fault.Undetected {
				continue
			}
			f := set.Faults[r]
			_, g := c.gen.generate(f)
			if targets++; g != genAborted && targets%4 != 0 {
				continue
			}
			res := c.check(f, satConflictBudget)
			switch {
			case g == genAborted:
				aborted++
				if res == satUnsat {
					if _, rg := retry.generate(f); rg == genSuccess {
						t.Fatalf("%s %+v: UNSAT, but PODEM at limit 256 detects it", spec.Name, f)
					}
				}
			case g == genSuccess && res == satUnsat, g == genUntestable && res == satSat:
				t.Fatalf("%s %+v: PODEM says %v, SAT says %v", spec.Name, f, g, res)
			default:
				settled++
			}
		}
		t.Logf("%s: %d first-pass aborts and %d PODEM verdicts sampled: %d SAT, %d UNSAT, %d unknown",
			spec.Name, aborted, settled, c.counts[satSat], c.counts[satUnsat], c.counts[satUnknown])
		if aborted == 0 {
			t.Errorf("%s: no first-pass aborts to settle", spec.Name)
		}
	}
}
