package atpg

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/stdcell"
)

// relax solves f's miter under the given depth and fan-in bounds
// (miter.build) within budget; an UNSAT answer's proof must pass
// drupCheck.
func (c *satChecker) relax(f fault.Fault, depth, fanin, budget int) satResult {
	c.t.Helper()
	c.m.build(f, depth, fanin)
	res := c.m.sat.solve(budget)
	if res == satUnsat {
		formula, lemmas := c.m.sat.proof()
		if err := drupCheck(len(c.m.sat.level), formula, lemmas); err != nil {
			c.t.Fatalf("%s %+v: UNSAT proof of the relaxation (depth %d, fan-in %d) rejected: %v",
				c.label, f, depth, fanin, err)
		}
	}
	return res
}

// screenBounds are the relaxations the soundness checks try: the
// pre-screen's own, and tighter and looser ones, so that each bound bites
// on circuits too small for the pre-screen's fan-in bound to.
var screenBounds = [][2]int{
	{prescreenDepth, prescreenFanin}, {0, unbounded}, {1, 1}, {1, 2}, {2, 3}, {3, unbounded},
}

// checkRelaxations solves every class of set under each pair of bounds
// without a budget. A class some relaxation refutes must be UNSAT on the
// full miter (satChecker.check) and detected by no input combination. It
// returns how many classes were refuted.
func (c *satChecker) checkRelaxations(set *fault.Set, bounds [][2]int) int {
	c.t.Helper()
	var unsat []fault.Fault
	for _, r := range set.Reps() {
		f := set.Faults[r]
		refuted := -1
		for i, b := range bounds {
			if c.relax(f, b[0], b[1], 1<<30) == satUnsat {
				refuted = i
			}
		}
		if refuted < 0 {
			continue
		}
		if got := c.check(f, 1<<30); got != satUnsat {
			c.t.Fatalf("%s %+v: UNSAT under depth %d, fan-in %d, but the full miter says %v",
				c.label, f, bounds[refuted][0], bounds[refuted][1], got)
		}
		unsat = append(unsat, f)
	}
	c.neverDetected(unsat)
	return len(unsat)
}

// TestPrescreenSound: the pre-screen's relaxation only ever proves what is
// true. On the random scan circuits TestSATAgainstOracle uses, every class
// a relaxation refutes is UNSAT on the full miter and undetectable in the
// scalar oracle, and each relaxation proof passes drupCheck. On the three
// paper circuits at golden scale, after a random phase as in
// TestSATResidueChecked, no class the pre-screen proves comes back SAT on
// the full miter at the run's budget.
func TestPrescreenSound(t *testing.T) {
	shapes := []struct{ nPI, nFF, nGates int }{
		{3, 2, 20}, {4, 3, 30}, {5, 4, 40}, {6, 5, 50}, {7, 6, 60}, {4, 9, 60},
	}
	seeds := int64(6)
	if raceEnabled {
		seeds = 3
	}
	refuted := 0
	for seed := int64(1); seed <= seeds; seed++ {
		sh := shapes[int(seed)%len(shapes)]
		n, fixed := randScanCircuit(t, seed, sh.nPI, sh.nFF, sh.nGates)
		c := newSATChecker(t, fmt.Sprintf("seed %d", seed), n, fixed, 64)
		refuted += c.checkRelaxations(fault.NewUniverse(n), screenBounds)
	}
	if refuted == 0 {
		t.Error("no relaxation refuted any class: the oracle checked nothing")
	}
	if testing.Short() {
		return
	}
	specs := []circuitgen.Spec{
		circuitgen.S38417Class().Scale(0.05),
		circuitgen.WirelessCtrlClass().Scale(0.05),
		circuitgen.DSPCoreClass().Scale(0.05),
	}
	if raceEnabled {
		specs = specs[:1]
	}
	for _, spec := range specs {
		n, fixed := goldenScanCircuit(t, spec, 4)
		c := newSATChecker(t, spec.Name, n, fixed, 64)
		set := fault.NewUniverse(n)
		c.randomPhase(set)
		screened, proved, unknown := 0, 0, 0
		for _, r := range set.Reps() {
			if set.Status(r) != fault.Undetected {
				continue
			}
			f := set.Faults[r]
			screened++
			if c.relax(f, prescreenDepth, prescreenFanin, satConflictBudget) != satUnsat {
				continue
			}
			proved++
			switch c.m.solve(f, satConflictBudget) {
			case satSat:
				t.Fatalf("%s %+v: the pre-screen proves it untestable, the full miter finds a test", spec.Name, f)
			case satUnknown:
				unknown++
			}
		}
		t.Logf("%s: the pre-screen proves %d of %d classes untestable; the full miter budgets out on %d of them",
			spec.Name, proved, screened, unknown)
		if proved == 0 {
			t.Errorf("%s: the pre-screen proved nothing", spec.Name)
		}
	}
}

// FuzzPrescreen: on a small random scan circuit, every class that the
// pre-screen's relaxation, or one under fuzzed bounds, refutes must be UNSAT
// on the full miter and undetectable by every input combination, with
// each UNSAT proof passing drupCheck. freeze, when odd, also freezes a
// functional primary input to a constant.
func FuzzPrescreen(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(40), uint8(1), uint8(2), uint8(0))
	f.Add(int64(7), uint8(2), uint8(0), uint8(12), uint8(0), uint8(0), uint8(3))
	f.Add(int64(99), uint8(5), uint8(4), uint8(70), uint8(2), uint8(5), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nFF, nGates, depth, fanin, freeze uint8) {
		n, fixed := randScanCircuit(t, seed, 1+int(nPI%6), int(nFF%6), 2+int(nGates%80))
		if freeze%2 == 1 {
			var pis []int
			for i, p := range n.PIs {
				if p.Name == "pi" {
					pis = append(pis, i)
				}
			}
			fixed[n.PIs[pis[int(freeze/4)%len(pis)]].Net] = int8(freeze/2) % 2
		}
		bound := [2]int{int(depth % 4), 1 + int(fanin%5)}
		if bound[1] == 5 {
			bound[1] = unbounded
		}
		c := newSATChecker(t, "fuzz", n, fixed, 64)
		c.checkRelaxations(fault.NewUniverse(n), [][2]int{{prescreenDepth, prescreenFanin}, bound})
	})
}

// TestPrescreenIsInvisible: the pre-screen changes no pattern and no
// status. s38417c and wctrl1 at golden scale, at the test-point counts of
// the golden levels (0, 2 and 5 % of the flip-flops), give byte-equal
// patterns and equal per-fault statuses with and without it, and it
// proves some class untestable at every level.
func TestPrescreenIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-scale ATPG runs")
	}
	specs := []circuitgen.Spec{
		circuitgen.S38417Class().Scale(0.05),
		circuitgen.WirelessCtrlClass().Scale(0.05),
	}
	levels := []float64{0, 2, 5}
	if raceEnabled {
		specs, levels = specs[:1], levels[:1]
	}
	for _, spec := range specs {
		design, err := circuitgen.Generate(spec, stdcell.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range levels {
			n, fixed := goldenScanCircuit(t, spec, int(math.Round(tp/100*float64(design.NumFlipFlops()))))
			on, setOn, snap := tracedRun(t, n, Options{Constraints: fixed})
			setOff := fault.NewUniverse(n)
			off, err := RunContext(context.Background(), n, setOff, Options{Constraints: fixed, noPrescreen: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(on.Patterns, off.Patterns) {
				t.Errorf("%s tp %.0f%%: %d patterns with the pre-screen, %d without, or their bits differ",
					spec.Name, tp, len(on.Patterns), len(off.Patterns))
			}
			for i := int32(0); i < int32(setOn.Total()); i++ {
				if a, b := setOn.Status(i), setOff.Status(i); a != b {
					t.Fatalf("%s tp %.0f%%: fault %+v is %v with the pre-screen, %v without",
						spec.Name, tp, setOn.Faults[i], a, b)
				}
			}
			proved := snap.Counters["atpg.prescreened_classes"]
			t.Logf("%s tp %.0f%%: %d patterns, %d untestable classes, %d of them proved by the pre-screen",
				spec.Name, tp, len(on.Patterns), on.UntestableClasses, proved)
			if proved <= 0 {
				t.Errorf("%s tp %.0f%%: the pre-screen proved nothing", spec.Name, tp)
			}
		}
	}
}
