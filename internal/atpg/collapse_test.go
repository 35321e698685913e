package atpg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/stdcell"
)

// TestCollapseEquivalenceAndDominance property-tests the structural
// collapsing against bit-parallel simulation on random circuits:
//
//   - equivalence: a pattern detects the class representative iff it
//     detects every fault merged into the class (identical full detection
//     words, earlyExit=false);
//   - dominance: every pattern detecting a child class also detects its
//     parent (det(child) ⊆ det(parent)), so dropping parents from the
//     target list never loses detection credit.
func TestCollapseEquivalenceAndDominance(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			n := randCircuit(t, seed, 10, 150)
			v, err := NewView(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			set := fault.NewUniverse(n)
			fs := NewFaultSim(v)
			defer fs.Release()
			reps := set.Reps()
			rng := rand.New(rand.NewSource(seed * 1031))
			det := make([]uint64, set.Total())
			b := fs.NewBatch()
			domEdges := 0
			for round := 0; round < 6; round++ {
				b.Reset()
				vals := make([]int8, len(v.Sources))
				for bit := 0; bit < 64; bit++ {
					for i := range vals {
						vals[i] = int8(rng.Intn(2))
					}
					b.SetPattern(bit, vals)
				}
				fs.SimGood(b)
				for i := range set.Faults {
					det[i] = fs.Detects(set.Faults[i], b, false)
				}
				// Equivalence: identical detection word across the class.
				for i := range set.Faults {
					if r := set.Rep[i]; det[i] != det[r] {
						t.Fatalf("round %d: fault %d det=%#x but its representative %d det=%#x",
							round, i, det[i], r, det[r])
					}
				}
				// Dominance: det(child) ⊆ det(parent) for every edge.
				for c := range reps {
					pw := det[reps[c]]
					for _, child := range set.DomChildren(int32(c)) {
						domEdges++
						if cw := det[reps[child]]; cw&^pw != 0 {
							t.Fatalf("round %d: child class %d detected by %#x patterns missing from parent class %d (%#x)",
								round, child, cw, c, pw)
						}
					}
				}
			}
			if set.NumCollapsed() >= set.NumClasses() && domEdges > 0 {
				t.Fatalf("dominance found %d edges but removed no class", domEdges)
			}
		})
	}
}

// TestDomShortcutIsInvisible runs full ATPG with and without the
// dominance-based simulation shortcut: the patterns, per-fault statuses,
// and coverage must be bit-identical — the shortcut is a pure
// optimization.
func TestDomShortcutIsInvisible(t *testing.T) {
	for seed := int64(2); seed <= 3; seed++ {
		n := randCircuit(t, seed*7, 12, 200)
		run := func(noDom bool) (*Result, *fault.Set) {
			set := fault.NewUniverse(n)
			r, err := Run(n, set, Options{noDomShortcut: noDom})
			if err != nil {
				t.Fatal(err)
			}
			return r, set
		}
		rOn, sOn := run(false)
		rOff, sOff := run(true)
		if !reflect.DeepEqual(rOn.Patterns, rOff.Patterns) {
			t.Fatalf("seed %d: pattern sets differ with dominance shortcut on/off (%d vs %d patterns)",
				seed, len(rOn.Patterns), len(rOff.Patterns))
		}
		for i := 0; i < sOn.Total(); i++ {
			if sOn.Status(int32(i)) != sOff.Status(int32(i)) {
				t.Fatalf("seed %d: fault %d status %v with shortcut vs %v without",
					seed, i, sOn.Status(int32(i)), sOff.Status(int32(i)))
			}
		}
		fcOn, feOn := sOn.Coverage()
		fcOff, feOff := sOff.Coverage()
		if fcOn != fcOff || feOn != feOff {
			t.Fatalf("seed %d: coverage %.6f/%.6f with shortcut vs %.6f/%.6f without",
				seed, fcOn, feOn, fcOff, feOff)
		}
		if rOn.FaultClasses != sOn.NumClasses() || rOn.CollapsedClasses != sOn.NumCollapsed() {
			t.Fatalf("seed %d: Result class counts %d/%d != set %d/%d",
				seed, rOn.FaultClasses, rOn.CollapsedClasses, sOn.NumClasses(), sOn.NumCollapsed())
		}
	}
}

// TestCollapseRatioOnPaperCircuits locks the acceptance bound: structural
// collapsing leaves at most 65% of the uncollapsed fault universe as
// explicit targets on the three full-size experiment circuits.
func TestCollapseRatioOnPaperCircuits(t *testing.T) {
	lib := stdcell.Default()
	for _, spec := range []circuitgen.Spec{
		circuitgen.S38417Class(),
		circuitgen.WirelessCtrlClass(),
		circuitgen.DSPCoreClass(),
	} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			n, err := circuitgen.Generate(spec, lib)
			if err != nil {
				t.Fatal(err)
			}
			set := fault.NewUniverse(n)
			total, classes, collapsed := set.Total(), set.NumClasses(), set.NumCollapsed()
			if collapsed <= 0 || collapsed > classes || classes > total {
				t.Fatalf("inconsistent counts: total=%d classes=%d collapsed=%d", total, classes, collapsed)
			}
			if ratio := float64(collapsed) / float64(total); ratio > 0.65 {
				t.Fatalf("%s: collapsed classes %d are %.1f%% of %d-fault universe (want <= 65%%)",
					spec.Name, collapsed, ratio*100, total)
			}
			t.Logf("%s: %d faults -> %d equivalence classes -> %d collapsed targets (%.1f%%)",
				spec.Name, total, classes, collapsed, 100*float64(collapsed)/float64(total))
		})
	}
}
