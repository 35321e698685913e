package atpg

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"tpilayout/internal/fault"
	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/testability"
)

// Effort bounds no caller varies.
const (
	// secondaryLimit caps the secondary targets dynamic compaction
	// attempts per cube.
	secondaryLimit = 192
	// satConflictBudget bounds each SAT call of the residue pass, in
	// conflicts rather than time so verdicts do not depend on the host; a
	// call that runs out leaves its class Aborted.
	satConflictBudget = 1000
	// maxPatterns fails the run if the pattern count explodes.
	maxPatterns = 1 << 20
	// backtrackLimit bounds PODEM search per fault. A class whose search
	// exceeds it goes to the SAT residue pass.
	backtrackLimit = 64
	// prescreenDepth and prescreenFanin bound the pre-screen's relaxation
	// of the miter: its fan-out cone stops this many gates past the fault
	// site, where the nets count as observed, and its good circuit this
	// many gates behind the cone, where the nets are free. Its UNSAT
	// proves a class untestable (miter.build).
	prescreenDepth = 1
	prescreenFanin = 16
	// randomRounds caps the 64-pattern random batches simulated before
	// deterministic generation. The phase stops early once two
	// consecutive rounds each detect fewer than 0.1% of the fault classes.
	randomRounds = 48
	// fillSeed seeds the random fill of don't-care bits and the random
	// pattern phase.
	fillSeed = 0
)

// Options configures an ATPG run.
type Options struct {
	// Constraints freezes nets to capture-mode constants (scan-enable = 0,
	// TSFF controls TE = 0 / TR = 1).
	Constraints map[netlist.NetID]int8

	// Telemetry, when non-nil, receives the run's ATPG counters on the
	// ATPG stage's span: pattern provenance (atpg.patterns,
	// atpg.random_patterns, atpg.random_kept, atpg.det_kept), class
	// outcomes (atpg.fault_classes, atpg.aborted_classes,
	// atpg.untestable_classes, atpg.prescreened_classes), PODEM search
	// effort (atpg.podem_targets, atpg.podem_backtracks,
	// atpg.extend_blocked), the SAT residue pass's calls by outcome
	// (atpg.sat_calls, atpg.sat_resolved, atpg.sat_budget_outs,
	// atpg.sat_cube_rejects), fault-simulation work (atpg.sim_batches,
	// atpg.sim_detect_calls, atpg.sim_region_props). Histograms record where
	// the time went: atpg.prescreen_ns once per run, atpg.podem_ns and
	// atpg.podem_bt_depth per primary target, atpg.sat_ns per SAT call,
	// atpg.dyncomp_ns per cube's dynamic compaction, atpg.compact_ns per
	// static pass (top-up coverage check, reverse compaction),
	// atpg.sim_batch_ns per good-circuit batch and atpg.sim_detect_ns per
	// detect loop.
	// Counters are flushed once at the end of the run, so the hot loops
	// pay nothing; a nil span costs nothing at all.
	Telemetry *telemetry.Span

	// noDynamicCompaction disables per-cube secondary-fault targeting, so
	// a test can measure what dynamic compaction buys. It is what lets
	// independent detection requirements share a pattern — and therefore
	// what makes test points (which turn conflicting PI requirements into
	// independent scan-cell bits) reduce the pattern count.
	noDynamicCompaction bool
	// backtracks, when positive, replaces backtrackLimit, so a test can
	// make PODEM abort.
	backtracks int
	// noPrescreen skips the pre-screen, so a test can check that it
	// changes no pattern and no status.
	noPrescreen bool
}

// Pattern is one fully-specified test pattern: one 0/1 value per view
// source (scan cells first-class among them).
type Pattern []int8

// Result is the outcome of a RunContext.
type Result struct {
	View     *View
	Faults   *fault.Set
	Patterns []Pattern

	// Class counts at the end of the run.
	UntestableClasses int
	AbortedClasses    int

	// FaultClasses is the equivalence-collapsed class count of the fault
	// universe.
	FaultClasses int

	// Pattern provenance after compaction.
	RandomKept        int // surviving random-phase patterns
	DeterministicKept int // surviving PODEM patterns
}

// RunContext generates a compact stuck-at test set for the capture-mode
// view of n, updating the fault statuses in set. Cancelling ctx stops the
// run within one work unit (one PODEM fault, one random round, 32
// positions of a fault-simulation pass) and returns the context's error.
// The run is one goroutine.
func RunContext(ctx context.Context, n *netlist.Netlist, set *fault.Set, opt Options) (*Result, error) {
	if opt.backtracks <= 0 {
		opt.backtracks = backtrackLimit
	}
	v, err := NewView(n, opt.Constraints)
	if err != nil {
		return nil, err
	}
	ta, err := testability.Analyze(n, testability.Options{Constraints: opt.Constraints})
	if err != nil {
		return nil, err
	}

	precreditCaptureDead(v, set)

	// Hardest faults first: dedicating early patterns to the hardest
	// faults lets random fill mop up the easy ones, which is what keeps
	// the final set compact.
	reps := append([]int32(nil), set.Reps()...)
	sort.SliceStable(reps, func(i, j int) bool {
		return ta.TC(set.Faults[reps[i]].Net) > ta.TC(set.Faults[reps[j]].Net)
	})

	gen := newPodem(v, ta, opt.backtracks)
	sim := newFaultSim(ctx, v, opt.Telemetry)
	// Per-call PODEM latency and backtrack-depth distributions, and the
	// time of the compaction phases around them. With telemetry off the
	// nil histograms also skip the time.Now pair per sample.
	sp := opt.Telemetry
	hPodemNS, hPodemBT, hSatNS := sp.Hist("atpg.podem_ns"), sp.Hist("atpg.podem_bt_depth"), sp.Hist("atpg.sat_ns")
	hDyncompNS, hCompactNS, hPrescreenNS := sp.Hist("atpg.dyncomp_ns"), sp.Hist("atpg.compact_ns"), sp.Hist("atpg.prescreen_ns")
	// timed runs fn and, with telemetry on, records how long it took.
	timed := func(h *telemetry.Hist, fn func()) {
		if h == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		h.Observe(int64(time.Since(t0)))
	}

	rng := rand.New(rand.NewSource(fillSeed))
	res := &Result{View: v, Faults: set, FaultClasses: set.NumClasses()}

	simulateAndDrop := func(batch *Batch) int {
		dropped := 0
		sim.SimGood(batch)
		sim.detectEach(reps, set, batch, func(i int) bool {
			st := set.Status(reps[i])
			return st == fault.Undetected || st == fault.Aborted
		}, func(i int, _ uint64) {
			set.SetStatus(reps[i], fault.Detected)
			dropped++
		})
		return dropped
	}

	// Phase 1: random patterns. They sweep the easy bulk of the fault
	// universe cheaply, leaving the deterministic engine only the
	// random-pattern-resistant faults (which is exactly the population
	// test points are inserted for). Useless patterns are discarded again
	// by the final static compaction.
	lowRounds := 0
	batch := sim.NewBatch()
	for round := 0; round < randomRounds && lowRounds < 2; round++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		batch.Reset()
		// One backing array per round; each pattern is a subslice, so the
		// round costs two allocations instead of 65.
		chunk := make([]int8, 64*len(v.Sources))
		for bit := 0; bit < 64; bit++ {
			cube := chunk[bit*len(v.Sources) : (bit+1)*len(v.Sources) : (bit+1)*len(v.Sources)]
			for i := range cube {
				cube[i] = -1
			}
			fillRandom(cube, rng)
			batch.SetPattern(bit, cube)
			res.Patterns = append(res.Patterns, Pattern(cube))
		}
		dropped := simulateAndDrop(batch)
		if dropped*1000 < set.NumClasses() {
			lowRounds++
		} else {
			lowRounds = 0
		}
	}
	randomGenerated := len(res.Patterns)

	// The pre-screen: every class still undetected gets one SAT call on a
	// relaxation of its miter, and an UNSAT answer proves it untestable.
	// A proof is used only where the run would otherwise pay for the
	// class: at its own turn in a PODEM pass, which marks it Untestable
	// instead of searching, and in dynamic compaction, which counts it a
	// failed attempt instead of extending. Statuses change at the same
	// points as without the screen, so patterns and tables do not move.
	mit := newMiter(v)
	proven := make([]bool, len(reps))
	var prescreened int
	if !opt.noPrescreen {
		var err error
		timed(hPrescreenNS, func() { prescreened, err = prescreen(ctx, mit, set, reps, proven) })
		if err != nil {
			return nil, err
		}
	}

	// Deterministic generation runs in passes over the classes in reps
	// order. A test found for a class becomes a pattern through emit; every
	// 64 patterns the batch is fault-simulated and whatever it detects is
	// dropped.
	batch.Reset()
	count := 0
	flush := func() error {
		if count == 0 {
			return nil
		}
		if len(res.Patterns) > maxPatterns {
			return fmt.Errorf("atpg: pattern count exceeded %d", maxPatterns)
		}
		simulateAndDrop(batch)
		batch.Reset()
		count = 0
		return nil
	}
	// emit turns the cube gen holds for reps[ri], a test for it, into a
	// pattern: dynamic compaction, random fill, a batch slot. The target is
	// marked detected first, so a slow sim round cannot re-target it.
	emit := func(ri int, cube []int8) error {
		set.SetStatus(reps[ri], fault.Detected)
		if !opt.noDynamicCompaction {
			timed(hDyncompNS, func() { compactInto(gen, set, reps, ri, proven) })
			cube = gen.cube()
		}
		fillRandom(cube, rng)
		batch.SetPattern(count, cube)
		res.Patterns = append(res.Patterns, Pattern(cube))
		if count++; count == 64 {
			return flush()
		}
		return nil
	}
	// pass hands target every class whose status is want when its turn
	// comes. One class is the cancellation work unit: a cancel lands
	// before the next target.
	pass := func(want fault.Status, target func(ri int, r int32) error) error {
		for ri, r := range reps {
			if set.Status(r) != want {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if err := target(ri, r); err != nil {
				return err
			}
		}
		return flush()
	}
	podemPass := func() error {
		return pass(fault.Undetected, func(ri int, r int32) error {
			if proven[ri] {
				set.SetStatus(r, fault.Untestable)
				return nil
			}
			var t0 time.Time
			btBefore := gen.nBacktracks
			if hPodemNS != nil {
				t0 = time.Now()
			}
			cube, g := gen.generate(set.Faults[r])
			if hPodemNS != nil {
				hPodemNS.Observe(int64(time.Since(t0)))
				hPodemBT.Observe(gen.nBacktracks - btBefore)
			}
			switch g {
			case genSuccess:
				return emit(ri, cube)
			case genUntestable:
				set.SetStatus(r, fault.Untestable)
			case genAborted:
				set.SetStatus(r, fault.Aborted)
			}
			return nil
		})
	}

	if err := podemPass(); err != nil {
		return nil, err
	}
	// The SAT residue pass: every class PODEM gave up on goes to the
	// solver. An UNSAT miter proves the class untestable; a model becomes
	// a cube that must detect the class in the PODEM simulator before it
	// is emitted like a PODEM cube. A budget-out or a cube that fails the
	// check leaves the class Aborted.
	var sat satStats
	if err := pass(fault.Aborted, func(ri int, r int32) error {
		var t0 time.Time
		if hSatNS != nil {
			t0 = time.Now()
		}
		f := set.Faults[r]
		verdict := mit.solve(f, satConflictBudget)
		detects := verdict == satSat && gen.load(f, mit.cube())
		if hSatNS != nil {
			hSatNS.Observe(int64(time.Since(t0)))
		}
		sat.calls++
		switch {
		case detects:
			sat.resolved++
			return emit(ri, gen.cube())
		case verdict == satUnsat:
			sat.resolved++
			set.SetStatus(r, fault.Untestable)
		case verdict == satSat:
			sat.cubeRejects++
		default:
			sat.budgetOuts++
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Top-up: classes detected only during the random phase would force
	// the final compaction to keep whole random patterns for a handful of
	// faults each. Re-target them deterministically (they are easy faults,
	// and dynamic compaction packs independent easy faults densely); the
	// random patterns then survive compaction only as a last resort.
	if randomGenerated > 0 {
		var det []bool
		timed(hCompactNS, func() { det = sim.coveredBy(res.Patterns[randomGenerated:], set, reps) })
		var fallback []int32
		for i, r := range reps {
			if set.Status(r) == fault.Detected && !det[i] {
				set.SetStatus(r, fault.Undetected)
				fallback = append(fallback, r)
			}
		}
		if err := podemPass(); err != nil {
			return nil, err
		}
		// Anything the top-up could not regenerate is still covered by a
		// random pattern; restore its status so compaction keeps one.
		for _, r := range fallback {
			if st := set.Status(r); st == fault.Aborted || st == fault.Untestable {
				set.SetStatus(r, fault.Detected)
			}
		}
	}

	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	var kept []bool
	timed(hCompactNS, func() { res.Patterns, kept = compactReverse(sim, set, reps, res.Patterns) })
	for i, k := range kept {
		if !k {
			continue
		}
		if i < randomGenerated {
			res.RandomKept++
		} else {
			res.DeterministicKept++
		}
	}

	// A cancel that landed inside a compaction detect loop leaves its
	// pass partial; the run must fail rather than return a miscompacted
	// set.
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}

	for _, r := range reps {
		switch set.Status(r) {
		case fault.Untestable:
			res.UntestableClasses++
		case fault.Aborted:
			res.AbortedClasses++
		}
	}
	flushTelemetry(sp, res, gen, sim, randomGenerated, prescreened, sat)
	return res, nil
}

// prescreen screens every class of reps still Undetected (miter.screen)
// and marks, by position in reps, those it proves untestable in proven;
// it returns how many. It checks ctx before each class.
func prescreen(ctx context.Context, mit *miter, set *fault.Set, reps []int32, proven []bool) (int, error) {
	n := 0
	for ri, r := range reps {
		if set.Status(r) != fault.Undetected {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return n, cerr
		}
		if mit.screen(set.Faults[r], satConflictBudget) {
			proven[ri] = true
			n++
		}
	}
	return n, nil
}

// satStats counts the SAT residue pass's calls by outcome: resolved
// (a checked cube or an UNSAT proof), budget-outs, and models whose cube
// fails the PODEM simulator's check (each leaves its class Aborted).
type satStats struct {
	calls, resolved, budgetOuts, cubeRejects int64
}

// flushTelemetry records the run's counters on the ATPG stage span in
// one pass at the end — the generation and simulation loops themselves
// carry only plain per-struct ints, so instrumentation adds no work to
// the hot paths.
func flushTelemetry(sp *telemetry.Span, res *Result, gen *podem, sim *faultSim, randomGenerated, prescreened int, sat satStats) {
	if sp == nil {
		return
	}
	sp.Add("atpg.patterns", int64(len(res.Patterns)))
	sp.Add("atpg.random_patterns", int64(randomGenerated))
	sp.Add("atpg.random_kept", int64(res.RandomKept))
	sp.Add("atpg.det_kept", int64(res.DeterministicKept))
	sp.Add("atpg.fault_classes", int64(res.FaultClasses))
	sp.Add("atpg.aborted_classes", int64(res.AbortedClasses))
	sp.Add("atpg.untestable_classes", int64(res.UntestableClasses))
	sp.Add("atpg.prescreened_classes", int64(prescreened))
	sp.Add("atpg.podem_targets", gen.nTargets)
	sp.Add("atpg.podem_backtracks", gen.nBacktracks)
	sp.Add("atpg.extend_blocked", gen.nBlocked)
	sp.Add("atpg.sat_calls", sat.calls)
	sp.Add("atpg.sat_resolved", sat.resolved)
	sp.Add("atpg.sat_budget_outs", sat.budgetOuts)
	sp.Add("atpg.sat_cube_rejects", sat.cubeRejects)
	sp.Add("atpg.sim_batches", sim.batches)
	sp.Add("atpg.sim_detect_calls", sim.detects)
	sp.Add("atpg.sim_region_props", sim.props)
}

// coveredBy simulates the given patterns and reports, by position in
// reps, which of the reps they detect. Statuses are not modified.
func (s *faultSim) coveredBy(patterns []Pattern, set *fault.Set, reps []int32) []bool {
	det := make([]bool, len(reps))
	batch := s.NewBatch()
	for lo := 0; lo < len(patterns); lo += 64 {
		batch.Reset()
		for i := lo; i < len(patterns) && i < lo+64; i++ {
			batch.SetPattern(i-lo, patterns[i])
		}
		s.SimGood(batch)
		s.detectEach(reps, set, batch, func(i int) bool {
			return !det[i] && set.Status(reps[i]) == fault.Detected
		}, func(i int, _ uint64) { det[i] = true })
	}
	return det
}

// compactInto runs dynamic compaction for the cube currently held by gen:
// starting after the primary fault's rank, it retargets still-undetected
// fault classes into the same cube until the attempt budget is spent.
// Successfully merged classes are marked detected. proven marks, by
// position in reps, the classes the pre-screen proved untestable.
func compactInto(gen *podem, set *fault.Set, reps []int32, primaryRank int, proven []bool) {
	attempts, consecFails := 0, 0
	for i := primaryRank + 1; i < len(reps); i++ {
		r2 := reps[i]
		if set.Status(r2) != fault.Undetected {
			continue
		}
		attempts++
		if attempts > secondaryLimit {
			break
		}
		// A secondary proved untestable, or one the frozen cube blocks,
		// counts as a failed attempt, exactly as the extend it skips
		// would have.
		if f := set.Faults[r2]; !proven[i] && !gen.blocked(f) && gen.extend(f, 8) {
			set.SetStatus(r2, fault.Detected)
			consecFails = 0
		} else if consecFails++; consecFails > 48 {
			break
		}
	}
}

// precreditCaptureDead marks fault classes that capture-mode patterns can
// never observe but the scan shift/flush tests do: branches into scan-in
// and scan-enable pins, and faults that force a test-control net to its
// already-constrained value.
func precreditCaptureDead(v *View, set *fault.Set) {
	set.CreditScan(func(f fault.Fault) bool {
		if cv := v.ConstVal[f.Net]; cv >= 0 && int8(f.SA) == cv {
			return true // stuck at the capture-mode constant: only other modes see it
		}
		if f.Load == fault.StemLoad {
			// A stem is capture-dead when every load is a scan-path pin.
			loads := v.fanout(f.Net)
			if len(loads) == 0 {
				return false
			}
			for _, ld := range loads {
				if !scanPathPin(v, ld) {
					return false
				}
			}
			return true
		}
		return scanPathPin(v, v.fanout(f.Net)[f.Load])
	})
}

// scanPathPin reports whether a load is a flip-flop si/se pin.
func scanPathPin(v *View, ld netlist.Load) bool {
	if ld.Cell == netlist.NoCell {
		return false
	}
	c := &v.N.Cells[ld.Cell]
	if !c.Cell.Kind.IsSequential() {
		return false
	}
	name := c.Cell.Inputs[ld.Pin].Name
	return name == "si" || name == "se"
}

// fillRandom replaces don't-care bits with random values.
func fillRandom(cube []int8, rng *rand.Rand) {
	var w uint64
	have := 0
	for i, b := range cube {
		if b >= 0 {
			continue
		}
		if have == 0 {
			w = rng.Uint64()
			have = 64
		}
		cube[i] = int8(w & 1)
		w >>= 1
		have--
	}
}

// compactReverse performs reverse-order static compaction: patterns are
// processed from last to first and kept only if they detect a fault class
// not detected by an already-kept (later) pattern. Batched 64 wide; within
// a batch a fault is credited to its highest-index detecting pattern,
// which matches the sequential definition exactly.
func compactReverse(s *faultSim, set *fault.Set, reps []int32, patterns []Pattern) ([]Pattern, []bool) {
	if len(patterns) == 0 {
		return patterns, nil
	}
	// Faults that the final set must keep covered.
	var targets []int32
	for _, r := range reps {
		if set.Status(r) == fault.Detected {
			targets = append(targets, r)
		}
	}
	done := make([]bool, len(targets))
	keep := make([]bool, len(patterns))
	batch := s.NewBatch()

	for hi := len(patterns); hi > 0; hi -= min(hi, 64) {
		lo := hi - min(hi, 64)
		batch.Reset()
		for i := lo; i < hi; i++ {
			batch.SetPattern(i-lo, patterns[i])
		}
		s.SimGood(batch)
		s.detectEach(targets, set, batch, func(i int) bool {
			return !done[i]
		}, func(i int, w uint64) {
			done[i] = true
			keep[lo+bits.Len64(w)-1] = true
		})
	}
	out := patterns[:0]
	for i, p := range patterns {
		if keep[i] {
			out = append(out, p)
		}
	}
	return out, keep
}
