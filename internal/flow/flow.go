// Package flow orchestrates the paper's complete tool flow (Figure 2):
//
//  1. TPI & scan insertion          (tpi, scan)
//  2. Floorplanning & placement     (place)
//  3. Layout-driven scan chain reordering + ATPG   (scan, atpg)
//  4. ECO: clock trees, fillers, routing           (place, cts, route)
//  5. Layout extraction             (extract)
//  6. Static timing analysis        (sta)
//
// One RunContext produces one layout plus every number the paper's
// Tables 1–3 report for it; SweepLevels (sweep.go) runs one per TP level.
//
// Execution is supervised: RunContext honors context cancellation with
// checkpoints inside every long stage, every failure is reported as a
// typed *StageError, and a panic anywhere in the flow is converted into
// a StageError carrying the captured stack instead of crashing the
// process.
package flow

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"tpilayout/internal/atpg"
	"tpilayout/internal/cts"
	"tpilayout/internal/extract"
	"tpilayout/internal/fault"
	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/route"
	"tpilayout/internal/scan"
	"tpilayout/internal/sta"
	"tpilayout/internal/supervise"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/testdata"
	"tpilayout/internal/tpi"
)

// Config selects the DfT and layout parameters of one flow run.
type Config struct {
	// TPPercent is the number of test points as a percentage of the
	// flip-flop count (the paper sweeps 0–5%).
	TPPercent float64
	// ExcludeNets blocks nets from TPI (critical-path exclusion).
	ExcludeNets map[netlist.NetID]bool

	// Workers is the number of levels in flight: SweepLevels runs one
	// layout per worker, and each layout's flow, ATPG included, is one
	// goroutine. 0 means GOMAXPROCS, 1 forces fully serial execution.
	// Results are bit-identical for every value — parallelism only
	// changes wall-clock time.
	Workers int

	// Deadline bounds the ATPG effort of the run: past it, deterministic
	// pattern generation stops, the remaining fault classes are marked
	// aborted, and the run completes with Result.Truncated set — FC/FE
	// report what was actually achieved, mirroring industrial abort
	// semantics. The zero value means no deadline. Deadline degrades the result;
	// cancelling the context aborts the run with an error.
	Deadline time.Time

	// Telemetry, when non-nil, traces the run: one "run" span wrapping
	// one child span per flow stage (enter/exit/duration/error), with
	// the stage counters of atpg/place/route/cts/sta attached. A nil
	// Telemetry costs one nil check per instrumentation site.
	Telemetry *telemetry.Tracer

	// parent, when non-nil, is the span the run's span opens under
	// instead of a new root: SweepLevels sets it to its sweep span.
	parent *telemetry.Span
	// share, when non-nil, ties a sweep level to the sweep's other levels
	// of the same test-point count: SweepLevels sets it, and RunLevel
	// either runs the count's layout or copies it (sweep.go).
	share *levelShare

	Scan  scan.Options
	Place place.Options

	// Compile stub read by nothing: bench/sweep.go assigns it. Delete it in
	// the follow-up to ROADMAP item 2, once bench/ stops assigning it.
	SweepMode int

	// SkipATPG runs only the physical side (steps 2–6); Table 2/3
	// sweeps do not need patterns.
	SkipATPG bool

	// TimingOptRounds enables the timing-optimization design iterations
	// the paper's Section 5 discusses (and deliberately does not run for
	// its own tables): after STA, every combinational cell on a critical
	// path is swapped to its strongest drive variant and the physical
	// flow (placement, clock trees, routing, extraction, STA) is redone,
	// up to this many times. Speed is bought with silicon area, exactly
	// the trade the paper describes.
	TimingOptRounds int
}

// The value bench/sweep.go assigns to the stub field above; goes with it.
const SweepIncremental = 1

// Result carries every artifact of one flow run.
type Result struct {
	Netlist *netlist.Netlist
	TPs     *tpi.Result
	Scan    *scan.Result
	Place   *place.Placement
	ATPG    *atpg.Result
	Faults  *fault.Set
	CTS     *cts.Result
	Route   *route.Result
	Par     *extract.Parasitics
	STA     *sta.Result

	// Truncated reports that the ATPG deadline expired before pattern
	// generation finished: the run is complete and valid, but FC/FE
	// cover only the detections achieved within the budget.
	Truncated bool

	Metrics Metrics
}

// Metrics is one row across the paper's three tables.
type Metrics struct {
	Circuit string

	// Table 1: test data.
	NumTP  int
	NumFF  int
	Chains int
	LMax   int
	Faults int
	// FaultClasses mirrors the ATPG result's equivalence-class count.
	// FC/FE stay defined over the full universe.
	FaultClasses int
	FC, FE       float64 // percent
	Patterns     int
	TDV          int64 // bits
	TAT          int64 // cycles

	// Truncated mirrors Result.Truncated: the ATPG deadline expired and
	// the Table 1 numbers reflect a budget-bounded run.
	Truncated bool

	// Table 2: silicon area.
	Cells       int
	Rows        int
	LRows       float64 // µm, total row length
	CoreArea    float64 // µm²
	FillerPct   float64 // % of core area in filler cells
	ChipArea    float64 // µm²
	LWires      float64 // µm
	AspectRatio float64

	// Table 3: timing, one entry per clock domain.
	Timing []DomainTiming
	// SlowNodes flags inaccurate (extrapolated) delays, as Pearl reports.
	SlowNodes int
}

// DomainTiming is one Table 3 row.
type DomainTiming struct {
	Domain   string
	TPOnPath int
	TcpPS    float64
	FmaxMHz  float64
	TWires   float64
	TIntr    float64
	TLoadDep float64
	TSetup   float64
	TSkew    float64
}

// RunContext executes the six flow steps on a fresh clone of design
// under supervision: the context cancels the run between (and inside)
// stages, every error is a *StageError naming the failing stage, and
// panics are isolated into errors. A cancellation lands within one work
// unit (one PODEM fault, one bisection cut, one routed net), not one
// flow.
func RunContext(ctx context.Context, design *netlist.Netlist, cfg Config) (*Result, error) {
	// Validate before cloning: an invalid config must fail without
	// touching the design at all.
	if verr := cfg.Validate(); verr != nil {
		return nil, newStageError(StageConfig, cfg.TPPercent, verr)
	}
	return runInPlace(ctx, design.Clone(), cfg)
}

// runInPlace is RunContext without the defensive clone: the flow edits
// design directly and Result.Netlist is design itself. Callers that
// already hold a private copy (the sweep engine clones once per level
// from a prewarmed base circuit) use this to avoid the double clone.
func runInPlace(ctx context.Context, design *netlist.Netlist, cfg Config) (res *Result, err error) {
	if verr := cfg.Validate(); verr != nil {
		return nil, newStageError(StageConfig, cfg.TPPercent, verr)
	}

	// stage tracks the currently-running step so both the deferred panic
	// handler and the cancellation checkpoints can name it; stageSpan is
	// that step's telemetry span (nil when telemetry is off).
	stage := StageConfig
	runSpan := cfg.runSpan()
	var stageSpan *telemetry.Span
	endStage := func(e error) {
		stageSpan.EndErr(e)
		stageSpan = nil
	}
	// The deferred close is what keeps span trees balanced on every exit:
	// a panic (recovered here) or an error return closes the open stage
	// span and the run span with the failure attached, so a trace always
	// shows where the time went.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, newStageError(stage, cfg.TPPercent, supervise.AsPanicError(r))
		}
		if err != nil {
			endStage(err)
			runSpan.EndErr(err)
		}
	}()
	// Stage names ride on the goroutine's pprof labels (on top of any
	// run_id/tp_level labels the ctx already carries from RunLevel), so
	// profile samples attribute to the Fig. 2 stage that burned them.
	// Restored on exit: the goroutine may be a pooled sweep worker.
	defer pprof.SetGoroutineLabels(ctx)
	enter := func(s string) error {
		endStage(nil)
		stage = s
		stageSpan = runSpan.Child(s)
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("stage", s)))
		if cerr := ctx.Err(); cerr != nil {
			return newStageError(s, cfg.TPPercent, cerr)
		}
		return nil
	}
	fail := func(e error) error { return newStageError(stage, cfg.TPPercent, e) }

	n := design
	res = &Result{Netlist: n}
	res.Metrics.Circuit = n.Name

	// Step 1: TPI and scan insertion.
	if err := enter(StageTPI); err != nil {
		return nil, err
	}
	count := tpCount(cfg.TPPercent, n.NumFlipFlops())
	tps, err := tpi.Insert(n, tpi.Options{Count: count, Exclude: cfg.ExcludeNets})
	if err != nil {
		return nil, fail(err)
	}
	res.TPs = tps
	stageSpan.Add("tpi.points", int64(len(tps.Points)))
	if err := enter(StageScan); err != nil {
		return nil, err
	}
	sc, err := scan.Insert(n, tps, cfg.Scan)
	if err != nil {
		return nil, fail(err)
	}
	res.Scan = sc
	stageSpan.Add("scan.chains", int64(sc.NumChains()))
	stageSpan.Add("scan.max_length", int64(sc.MaxLength()))

	// Step 2: floorplanning and placement.
	if err := enter(StagePlace); err != nil {
		return nil, err
	}
	popt := cfg.Place
	popt.Telemetry = stageSpan
	pl, err := place.PlaceContext(ctx, n, popt)
	if err != nil {
		return nil, fail(err)
	}
	res.Place = pl

	// Step 3: layout-driven scan chain reordering, then ATPG on the
	// updated netlist.
	scan.Reorder(n, sc, pl.Pos)
	if !cfg.SkipATPG {
		if err := enter(StageATPG); err != nil {
			return nil, err
		}
		set := fault.NewUniverse(n)
		aopt := atpg.Options{
			Constraints: sc.CaptureConstraints(),
			Deadline:    cfg.Deadline,
			Telemetry:   stageSpan,
		}
		for k, v := range tps.CaptureConstraints() {
			aopt.Constraints[k] = v
		}
		ar, err := atpg.RunContext(ctx, n, set, aopt)
		if err != nil {
			return nil, fail(err)
		}
		// Remaining undetected faults on the DfT infrastructure are
		// covered by the scan shift and flush tests.
		set.CreditScan(func(f fault.Fault) bool { return onDfT(n, f) })
		res.ATPG = ar
		res.Faults = set
		res.Truncated = ar.Truncated
	}

	// Steps 4–6 (and re-runs of step 2) live in physical(), so that
	// timing-optimization design iterations can redo the whole layout.
	physical := func() (float64, error) {
		if err := enter(StageCTS); err != nil {
			return 0, err
		}
		ct, err := cts.Insert(n, res.Place, cts.Options{Telemetry: stageSpan})
		if err != nil {
			return 0, fail(err)
		}
		res.CTS = ct
		if err := enter(StageECO); err != nil {
			return 0, err
		}
		if err := res.Place.ECO(); err != nil {
			return 0, fail(err)
		}
		fillerArea := res.Place.InsertFillers()
		stageSpan.Add("eco.fillers", int64(len(res.Place.FillerCells)))
		if err := enter(StageRoute); err != nil {
			return 0, err
		}
		rt, err := route.RouteContext(ctx, res.Place, route.Options{Telemetry: stageSpan})
		if err != nil {
			return 0, fail(err)
		}
		res.Route = rt

		// Step 5: extraction.
		if err := enter(StageExtract); err != nil {
			return 0, err
		}
		res.Par = extract.Extract(n, res.Route)

		// Step 6: STA in application mode under the DfT constants.
		if err := enter(StageSTA); err != nil {
			return 0, err
		}
		sopt := sta.Options{Constraints: tps.ApplicationConstraints(), Telemetry: stageSpan}
		sopt.Constraints[sc.SE] = 0
		st, err := sta.AnalyzeContext(ctx, n, res.Par, sopt)
		if err != nil {
			return 0, fail(err)
		}
		res.STA = st
		return fillerArea, nil
	}

	fillerArea, err := physical()
	if err != nil {
		return nil, err
	}

	// Optional Section 5 design iterations: upsize critical cells, tear
	// the physical-only artifacts down, and rebuild the layout.
	for round := 0; round < cfg.TimingOptRounds; round++ {
		if upsizeCriticalCells(n, res.STA) == 0 {
			break
		}
		cts.Remove(n, res.CTS)
		res.Place.RemoveFillers()
		if err := enter(StagePlace); err != nil {
			return nil, err
		}
		popt.Telemetry = stageSpan
		pl, err := place.PlaceContext(ctx, n, popt)
		if err != nil {
			return nil, fail(fmt.Errorf("re-place (round %d): %w", round+1, err))
		}
		res.Place = pl
		scan.Reorder(n, sc, pl.Pos)
		if fillerArea, err = physical(); err != nil {
			return nil, err
		}
	}

	res.fillMetrics(count, fillerArea)
	endStage(nil)
	runSpan.End()
	return res, nil
}

// tpCount is the number of test points a level at pct% inserts into a
// design of flops flip-flops. A run's percentage reaches its layout only
// through this number, which is why a sweep's levels of one count share
// one run.
func tpCount(pct float64, flops int) int {
	return int(math.Round(pct / 100 * float64(flops)))
}

// runSpan opens the span that wraps one whole run: a child of the sweep
// span inside a sweep, a root span from Telemetry otherwise, nil when
// telemetry is off.
func (c *Config) runSpan() *telemetry.Span {
	if c.parent != nil {
		return c.parent.ChildTP(StageRun, c.TPPercent)
	}
	return c.Telemetry.StartSpan(StageRun, c.TPPercent)
}

// upsizeCriticalCells swaps every combinational cell on a critical path
// to the strongest drive variant of its kind, returning how many changed.
func upsizeCriticalCells(n *netlist.Netlist, st *sta.Result) int {
	changed := 0
	for _, rep := range st.PerDomain {
		for _, ci := range rep.PathCells {
			c := &n.Cells[ci]
			k := c.Cell.Kind
			if k.IsSequential() || k.IsPhysicalOnly() {
				continue
			}
			stronger := n.Lib.Strongest(k, len(c.Ins))
			if stronger == nil || stronger == c.Cell || stronger.Drive >= c.Cell.Drive {
				continue
			}
			if err := n.SwapCell(ci, stronger.Name, nil); err == nil {
				changed++
			}
		}
	}
	return changed
}

// onDfT reports whether a fault sits on test infrastructure (TSFF muxes,
// scan flops, scan-enable buffers or their nets).
func onDfT(n *netlist.Netlist, f fault.Fault) bool {
	isDfT := func(id netlist.CellID) bool {
		if id == netlist.NoCell {
			return false
		}
		switch n.Cells[id].Tag {
		case netlist.TagTestMux, netlist.TagScanFF, netlist.TagSEBuffer:
			return true
		}
		return false
	}
	if isDfT(n.Nets[f.Net].Driver) {
		return true
	}
	if f.Load != fault.StemLoad {
		ld := n.CSR().Fanout(f.Net)[f.Load]
		return isDfT(ld.Cell)
	}
	return false
}

// fillMetrics assembles the Tables 1–3 row from the run artifacts.
func (r *Result) fillMetrics(tpCount int, fillerArea float64) {
	n := r.Netlist
	m := &r.Metrics
	m.NumTP = tpCount
	m.NumFF = n.NumFlipFlops()
	m.Chains = r.Scan.NumChains()
	m.LMax = r.Scan.MaxLength()
	m.Truncated = r.Truncated
	if r.Faults != nil {
		m.Faults = r.Faults.Total()
		m.FaultClasses = r.ATPG.FaultClasses
		fc, fe := r.Faults.Coverage()
		m.FC = fc * 100
		m.FE = fe * 100
		m.Patterns = len(r.ATPG.Patterns)
		m.TDV = testdata.TDV(m.Chains, m.LMax, m.Patterns)
		m.TAT = testdata.TAT(m.LMax, m.Patterns)
	}

	// The paper's #cells excludes filler cells (their area is its own
	// column).
	m.Cells = 0
	for ci := range n.Cells {
		if !n.Cells[ci].Dead && n.Cells[ci].Tag != netlist.TagFiller {
			m.Cells++
		}
	}
	m.Rows = r.Place.NumRows
	m.LRows = float64(r.Place.NumRows) * r.Place.RowLen
	m.CoreArea = r.Place.CoreArea()
	m.FillerPct = 100 * fillerArea / m.CoreArea
	m.ChipArea = r.Place.ChipArea()
	m.LWires = r.Route.Total
	m.AspectRatio = r.Place.AspectRatio()

	tpMux := make(map[netlist.CellID]bool)
	if r.TPs != nil {
		for _, tp := range r.TPs.Points {
			tpMux[tp.InMux] = true
			tpMux[tp.OutMux] = true
			tpMux[tp.FF] = true
		}
	}
	for dom, rep := range r.STA.PerDomain {
		dt := DomainTiming{
			Domain:   n.Domains[dom].Name,
			TcpPS:    rep.Tcp,
			FmaxMHz:  rep.FmaxMHz,
			TWires:   rep.TWires,
			TIntr:    rep.TIntrinsic,
			TLoadDep: rep.TLoadDep,
			TSetup:   rep.TSetup,
			TSkew:    rep.TSkew,
		}
		// Count distinct test points with a cell on the critical path.
		seen := map[string]bool{}
		for _, ci := range rep.PathCells {
			if tpMux[ci] {
				seen[tpBase(n.Cells[ci].Name)] = true
			}
		}
		dt.TPOnPath = len(seen)
		m.Timing = append(m.Timing, dt)
	}
	m.SlowNodes = r.STA.SlowNodes
}

// tpBase strips the _im/_ff/_om suffix of a TSFF component name.
func tpBase(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '_' {
			return name[:i]
		}
	}
	return name
}
