package atpg

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/testability"
)

// refLoop is the backtracking the package had before the undo trail, kept
// as the model production is compared against: a pop simulates the
// un-assignment (assign(src, lX)), a flip simulates v→¬v directly, every
// event runs over the full circuit, and each frontier candidate gets an
// X-path search of its own. Only the tie-break is production's. It searches
// above decision floor with the given backtrack limit and returns the
// backtracks it made.
func refLoop(p *podem, f fault.Fault, floor, limit int) (genResult, int) {
	for backtracks := 0; ; {
		if p.s.detected() {
			return genSuccess, backtracks
		}
		if net, val, st := refObjective(p, f); st == objOK {
			if src, v, ok := p.backtrace(net, val); ok {
				p.decisions = append(p.decisions, decision{src: src, val: v})
				p.s.assign(src, v)
				continue
			}
		}
		for {
			if len(p.decisions) == floor {
				return genUntestable, backtracks
			}
			d := &p.decisions[len(p.decisions)-1]
			if !d.flipped {
				d.flipped, d.val = true, 1-d.val
				if backtracks++; backtracks > limit {
					return genAborted, backtracks
				}
				p.s.assign(d.src, d.val)
				break
			}
			p.s.assign(d.src, lX)
			p.decisions = p.decisions[:len(p.decisions)-1]
		}
	}
}

// refSearch is generate on the model.
func refSearch(p *podem, f fault.Fault) ([]int8, genResult, int) {
	p.s.setFault(f)
	p.s.coneFrom = 0
	p.decisions = p.decisions[:0]
	g, bt := refLoop(p, f, 0, p.btLimit)
	if g != genSuccess {
		return nil, g, bt
	}
	return p.cube(), g, bt
}

// refExtend is extend on the model.
func refExtend(p *podem, f fault.Fault, budget int) (bool, int) {
	p.s.retarget(f)
	floor := len(p.decisions)
	g, bt := refLoop(p, f, floor, budget)
	for g == genAborted && len(p.decisions) > floor {
		p.s.assign(p.decisions[len(p.decisions)-1].src, lX)
		p.decisions = p.decisions[:len(p.decisions)-1]
	}
	return g == genSuccess, bt
}

func refObjective(p *podem, f fault.Fault) (netlist.NetID, uint8, objState) {
	switch want := uint8(1 - f.SA); p.s.g(f.Net) {
	case lX:
		return f.Net, want, objOK
	case 1 - want:
		return 0, 0, objFail
	}
	// The model's podem is its own, so its simulator's mark array is free
	// to serve as the per-candidate visited set.
	var xpath func(net netlist.NetID) bool
	xpath = func(net netlist.NetID) bool {
		if p.v.IsSink[net] {
			return true
		}
		if p.s.xpVisit[net] == p.s.xpEpoch {
			return false
		}
		p.s.xpVisit[net] = p.s.xpEpoch
		for _, ci := range p.v.combLoads(net) {
			if out := p.v.CellOut[ci]; p.s.comp(out) == cX && xpath(out) {
				return true
			}
		}
		return false
	}
	best := netlist.NoCell
	for _, ci := range p.s.cand {
		out := p.v.CellOut[ci]
		if p.s.comp(out) != cX || !p.s.hasDInput(ci) {
			continue
		}
		if p.s.xpEpoch++; !xpath(out) {
			continue
		}
		if _, _, st := p.propObjective(ci); st != objOK {
			continue
		}
		if co, bco := p.ta.CO[out], int32(0); best == netlist.NoCell {
			best = ci
		} else if bco = p.ta.CO[p.v.CellOut[best]]; co < bco ||
			co == bco && (p.v.Level[ci] < p.v.Level[best] || p.v.Level[ci] == p.v.Level[best] && ci < best) {
			best = ci
		}
	}
	if best == netlist.NoCell {
		return 0, 0, objFail
	}
	return p.propObjective(best)
}

// trailCircuits are the circuits the trail is held to its model on: the
// committed .bench files and the three paper profiles at a scale where the
// slow model still finishes in seconds.
func trailCircuits(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	lib := stdcell.Default()
	out := map[string]*netlist.Netlist{}
	files, err := filepath.Glob("../circuitgen/testdata/*.bench")
	if err != nil || len(files) == 0 {
		t.Fatalf("no .bench testdata: %v", err)
	}
	for _, path := range files {
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := circuitgen.ReadBench(fh, filepath.Base(path), lib, 10000)
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = n
	}
	for _, spec := range []circuitgen.Spec{
		circuitgen.S38417Class().Scale(0.015),
		circuitgen.WirelessCtrlClass().Scale(0.01),
		circuitgen.DSPCoreClass().Scale(0.004),
	} {
		n, err := circuitgen.Generate(spec, lib)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Name] = n
	}
	return out
}

// TestTrailMatchesPropagateUndo holds production's search — undo trail,
// cone-restricted events, shared X-path marks — to refSearch with ==, for
// every fault class of every circuit at the backtrack limit a run uses:
// same verdict, same cube, same number of backtracks. After each generate
// the planes must be those of a from-scratch full-circuit simulation of
// the decision stack (inside the cone; everywhere once a success has been
// settled).
func TestTrailMatchesPropagateUndo(t *testing.T) {
	const limit = 64
	for name, n := range trailCircuits(t) {
		v, err := NewView(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		ta, err := testability.Analyze(n, testability.Options{})
		if err != nil {
			t.Fatal(err)
		}
		set := fault.NewUniverse(n)
		prod, ref, fresh := newPodem(v, ta, 0), newPodem(v, ta, 0), newSim5(v)
		outcomes := map[genResult]int{}

		// generate runs one fault through production and the model at one
		// limit and compares everything observable.
		generate := func(f fault.Fault, limit int) ([]int8, genResult, int) {
			prod.btLimit, ref.btLimit = limit, limit
			before := prod.nBacktracks
			cube, g := prod.generate(f)
			bt := int(prod.nBacktracks - before)
			rcube, rg, rbt := refSearch(ref, f)
			if g != rg || bt != rbt || !slices.Equal(cube, rcube) {
				t.Fatalf("%s %+v limit %d: trail (%v, %d backtracks, %v) != model (%v, %d backtracks, %v)",
					name, f, limit, g, bt, cube, rg, rbt, rcube)
			}
			// The pending flip of an aborted search is on the stack but not
			// in the planes.
			stack := prod.decisions
			if g == genAborted {
				stack = stack[:len(stack)-1]
			}
			fresh.setFault(f)
			fresh.coneFrom = 0
			for _, d := range stack {
				fresh.assign(d.src, d.val)
			}
			if g == genSuccess {
				prod.s.settle() // as the first extend would
			}
			for net, want := range fresh.P {
				inCone := prod.s.drv[net] == netlist.NoCell || prod.s.cone[prod.s.drv[net]] == prod.s.coneEpoch
				if (g == genSuccess || inCone) && prod.s.P[net] != want {
					t.Fatalf("%s %+v limit %d (%v): net %d planes %#x, from-scratch simulation of the stack gives %#x",
						name, f, limit, g, net, prod.s.P[net], want)
				}
			}
			if got, want := prod.s.detected(), fresh.detected(); got != want {
				t.Fatalf("%s %+v limit %d: detected() = %v, from scratch %v", name, f, limit, got, want)
			}
			return cube, g, bt
		}

		reps := set.Reps()
		for i, r := range reps {
			f := set.Faults[r]
			_, g, _ := generate(f, limit)
			outcomes[g]++
			if g == genSuccess {
				// Dynamic compaction on top of the cube, as compactInto
				// drives it: a few of the following classes, budget 8.
				for _, r2 := range reps[i+1 : min(i+7, len(reps))] {
					f2 := set.Faults[r2]
					before := prod.nBacktracks
					ok := prod.extend(f2, 8)
					bt := int(prod.nBacktracks - before)
					if rok, rbt := refExtend(ref, f2, 8); ok != rok || bt != rbt || !slices.Equal(prod.cube(), ref.cube()) {
						t.Fatalf("%s %+v extended by %+v: trail (%v, %d backtracks, %v) != model (%v, %d backtracks, %v)",
							name, f, f2, ok, bt, prod.cube(), rok, rbt, ref.cube())
					}
					if !slices.Equal(prod.s.P, ref.s.P) {
						t.Fatalf("%s %+v extended by %+v: planes differ from the model's", name, f, f2)
					}
				}
			}
		}
		t.Logf("%s: %d classes: %d detected, %d untestable, %d aborted at limit %d",
			name, len(set.Reps()), outcomes[genSuccess], outcomes[genUntestable], outcomes[genAborted], limit)
		if n.NumLiveCells() > 100 && (outcomes[genUntestable] == 0 || outcomes[genAborted] == 0) {
			t.Errorf("%s: want every outcome exercised, got %v", name, outcomes)
		}
	}
}
