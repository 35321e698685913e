package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/stdcell"
)

// TestCollapseEquivalenceAndDominance property-tests the structural
// equivalence collapsing against bit-parallel simulation on random
// circuits: a pattern detects the class representative iff it detects
// every fault merged into the class (identical full detection words of
// the reference simulator, refDetects).
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
			fs := newFaultSim(context.Background(), v, nil)
			rng := rand.New(rand.NewSource(seed * 1031))
			det := make([]uint64, set.Total())
			b := fs.NewBatch()
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
					det[i] = fs.refDetects(set.Faults[i], b)
				}
				// Equivalence: identical detection word across the class.
				for i := range set.Faults {
					if r := set.Rep[i]; det[i] != det[r] {
						t.Fatalf("round %d: fault %d det=%#x but its representative %d det=%#x",
							round, i, det[i], r, det[r])
					}
				}
			}
		})
	}
}

// TestCollapseRatioOnPaperCircuits locks the acceptance bound: structural
// equivalence collapsing leaves at most 65% of the uncollapsed fault
// universe as classes to target on the three full-size experiment
// circuits.
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
			total, classes := set.Total(), set.NumClasses()
			if classes <= 0 || classes > total {
				t.Fatalf("inconsistent counts: total=%d classes=%d", total, classes)
			}
			if ratio := float64(classes) / float64(total); ratio > 0.65 {
				t.Fatalf("%s: equivalence classes %d are %.1f%% of %d-fault universe (want <= 65%%)",
					spec.Name, classes, ratio*100, total)
			}
			t.Logf("%s: %d faults -> %d equivalence classes (%.1f%%)",
				spec.Name, total, classes, 100*float64(classes)/float64(total))
		})
	}
}
