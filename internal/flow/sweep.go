package flow

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"tpilayout/internal/netlist"
	"tpilayout/internal/scan"
	"tpilayout/internal/supervise"
)

// runLabels builds the pprof label set attributing profile samples to
// one flow run: tp_level always, run_id when the service stamped one
// onto the telemetry tracer. A level runs on one goroutine, so a live
// /debug/pprof/profile sample is attributable to its run and level.
func runLabels(cfg Config, pct float64) pprof.LabelSet {
	kv := []string{"tp_level", strconv.FormatFloat(pct, 'g', -1, 64)}
	if rid := cfg.Telemetry.Attr("run_id"); rid != "" {
		kv = append(kv, "run_id", rid)
	}
	return pprof.Labels(kv...)
}

// ExperimentConfig returns the per-circuit flow configuration the paper
// describes: chains of at most 100 flops for s38417 and circuit 1 with
// 97% row utilization, at most 32 chains and 50% utilization for p26909.
func ExperimentConfig(circuit string) Config {
	cfg := Config{}
	switch circuit {
	case "p26909c", "p26909":
		cfg.Scan = scan.Options{MaxChains: 32}
		cfg.Place.TargetUtilization = 0.50
	default:
		cfg.Scan = scan.Options{MaxChainLength: 100}
		cfg.Place.TargetUtilization = 0.97
	}
	return cfg
}

// LevelResult is the outcome of one level of a partial-failure sweep:
// either Metrics (Err == nil) or the level's typed failure (Err != nil,
// normally a *StageError). TPPercent identifies the level either way.
type LevelResult struct {
	TPPercent float64
	Metrics   Metrics
	Err       error
}

// SweepContext runs the flow for each test-point percentage and returns
// one metrics row per level, in order. Each distinct layout is generated
// from scratch (separate floorplans), exactly as the paper does; levels
// that round to the same test-point count share one layout.
//
// The layouts are independent, so SweepContext fans them out over up to
// cfg.Workers goroutines (GOMAXPROCS when 0), each running the full
// Figure 2 flow on its own clone of design. Results are reassembled in
// input order and are bit-identical to a serial (Workers: 1) run; only
// the wall-clock time changes.
//
// Cancelling the context stops every in-flight layout within one work
// unit and returns the context's error. All levels are attempted; if any
// fail, the error of the first failing level in input order is returned
// (use SweepPartial to also recover the levels that completed).
func SweepContext(ctx context.Context, design *netlist.Netlist, cfg Config, tpPercents []float64) ([]Metrics, error) {
	levels, err := SweepPartial(ctx, design, cfg, tpPercents)
	if err != nil {
		return nil, err
	}
	rows := make([]Metrics, len(levels))
	for i, lr := range levels {
		if lr.Err != nil {
			// Deterministic error reporting: the first failing level by
			// input order wins, matching what a serial run would return.
			return nil, fmt.Errorf("tpilayout: sweep at %.1f%%: %w", lr.TPPercent, lr.Err)
		}
		rows[i] = lr.Metrics
	}
	return rows, nil
}

// PrewarmBase clones design once and eagerly builds its derived caches
// (CSR adjacency, fanout view, levelization), so per-level clones share
// the warmed cache pointers instead of each rebuilding them — and no
// two workers ever race on a lazy build, because the returned base is
// immutable once prewarmed. SweepLevels calls it once per sweep and
// hands the result to every level.
func PrewarmBase(design *netlist.Netlist) *netlist.Netlist {
	base := design.Clone()
	base.Prewarm()
	return base
}

// LevelFunc runs one level of a sweep: the flow at pct% test points on
// the prewarmed base, with cfg as SweepLevels prepared it for the level.
// RunLevel is the LevelFunc of a plain sweep; a caller that wraps it
// (the service checkpoints around it) must hand it the cfg it was
// given, which is what ties the level's run span to the sweep and the
// level to the sweep's other levels of its test-point count.
type LevelFunc func(ctx context.Context, base *netlist.Netlist, cfg Config, pct float64) LevelResult

// RunLevel runs exactly one sweep level — the full Figure 2 flow at
// pct% test points on a fresh clone of the prewarmed base — and returns
// its LevelResult. It never panics: the worker-level recover of a sweep
// lives here, so a crashing level (inside a stage or outside, Clone
// included) degrades to LevelResult.Err, normally a *StageError wrapping
// a supervise.PanicError. cfg.TPPercent is overwritten with pct.
//
// Inside a sweep, a level whose test-point count an earlier level of the
// sweep already has is that level's twin: it waits for the earlier level
// and returns a copy of its Metrics under its own TPPercent, with a run
// span that carries flow.shared_level and no stages. A twin whose
// earlier level failed runs its own layout, so a failure is never
// copied. Outside a sweep RunLevel shares nothing.
func RunLevel(ctx context.Context, base *netlist.Netlist, cfg Config, pct float64) (out LevelResult) {
	out.TPPercent = pct
	sh := cfg.share
	if sh != nil && !sh.twin {
		// Deferred ahead of the recover below, so it runs after it and
		// hands the twins what the level returns, a recovered panic
		// included.
		defer sh.run.settle(&out)
	}
	defer func() {
		if r := recover(); r != nil {
			pe := supervise.AsPanicError(r)
			out.Err = &StageError{Stage: StageSweep, TPPercent: pct, Err: pe, Stack: pe.Stack}
		}
	}()
	c := cfg
	c.TPPercent = pct
	c.share = nil
	if sh != nil && sh.twin {
		if m, ok := sh.run.wait(ctx); ok {
			span := c.runSpan()
			span.Add(sharedLevel, 1)
			span.End()
			out.Metrics = m
			return out
		}
	}
	// Each level runs in place on its own clone of the prewarmed base,
	// so the shared base stays strictly read-only inside the worker and
	// the flow pays no second defensive clone.
	var r *Result
	var err error
	pprof.Do(ctx, runLabels(c, pct), func(ctx context.Context) {
		r, err = runInPlace(ctx, base.Clone(), c)
	})
	if err != nil {
		out.Err = err
		return out
	}
	out.Metrics = r.Metrics
	return out
}

// sharedLevel is the counter on a twin's run span: the level copied
// the metrics of an earlier level of the same test-point count.
const sharedLevel = "flow.shared_level"

// A sharedRun is the one layout a sweep builds for a test-point count
// that several of its levels round to. The first of them in input order
// runs it; the others, its twins, wait on done.
type sharedRun struct {
	done chan struct{}
	once sync.Once
	m    Metrics
	ok   bool // the first level succeeded and m is its row
}

// levelShare is a level's place in its count's sharedRun.
type levelShare struct {
	run  *sharedRun
	twin bool
}

// settle releases the twins once: with the first level's metrics when
// lr succeeded, with nothing when it failed or never ran (nil), which
// sends every twin to run its own layout.
func (r *sharedRun) settle(lr *LevelResult) {
	r.once.Do(func() {
		if lr != nil && lr.Err == nil {
			r.m, r.ok = lr.Metrics, true
		}
		close(r.done)
	})
}

// wait blocks until the first level settles or ctx ends, and returns a
// copy of the first level's metrics when there are some to copy.
func (r *sharedRun) wait(ctx context.Context) (Metrics, bool) {
	select {
	case <-r.done:
	case <-ctx.Done():
		return Metrics{}, false
	}
	if !r.ok {
		return Metrics{}, false
	}
	m := r.m
	m.Timing = slices.Clone(m.Timing)
	return m, true
}

// shareLevels pairs every level of a sweep with the first earlier level
// of its test-point count, if any: both get a levelShare, the later one
// as a twin. Levels with a count of their own get nil. A percentage
// outside [0,100] is left alone, so it fails validation in its own run.
func shareLevels(pcts []float64, flops int) []*levelShare {
	out := make([]*levelShare, len(pcts))
	first := map[int]int{}
	for i, pct := range pcts {
		if !(pct >= 0 && pct <= 100) {
			continue
		}
		n := tpCount(pct, flops)
		j, seen := first[n]
		if !seen {
			first[n] = i
			continue
		}
		if out[j] == nil {
			out[j] = &levelShare{run: &sharedRun{done: make(chan struct{})}}
		}
		out[i] = &levelShare{run: out[j].run, twin: true}
	}
	return out
}

// SweepPartial is the graceful-degradation sweep: it runs every level and
// returns one LevelResult per TP percentage, in input order, so a failed,
// panicked, or timed-out level is reported in place while completed
// levels survive. The returned error is non-nil only for sweep-level
// problems (an invalid Config) — per-level failures live in the
// LevelResult.Err fields. Each worker is panic-isolated: one crashing
// level can neither kill the process nor poison its siblings.
func SweepPartial(ctx context.Context, design *netlist.Netlist, cfg Config, tpPercents []float64) ([]LevelResult, error) {
	return SweepLevels(ctx, design, cfg, tpPercents, RunLevel)
}

// SweepLevels is the sweep engine: it validates cfg, opens the sweep
// span, prewarms design once, and calls level for every TP percentage on
// up to cfg.Workers goroutines (GOMAXPROCS when 0), returning the
// results in input order. Levels that round to the same test-point count
// share one run (RunLevel): only a twin waits, and only for an earlier
// level, which a worker already holds. What happens around one level —
// nothing for a CLI sweep (RunLevel), checkpointing for the service — is
// level's business; the error is non-nil only for an invalid Config.
func SweepLevels(ctx context.Context, design *netlist.Netlist, cfg Config, tpPercents []float64, level LevelFunc) ([]LevelResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]LevelResult, len(tpPercents))
	// One sweep-root span parents every level's run span, so a trace of
	// a parallel sweep still reads as one tree: sweep → run(tp) →
	// stages. The -1 level marks the root as a cross-level aggregate.
	sweepSpan := cfg.Telemetry.StartSpan(StageSweep, -1)
	defer sweepSpan.End()
	cfg.parent = sweepSpan
	base := PrewarmBase(design)
	shares := shareLevels(tpPercents, base.NumFlipFlops())

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tpPercents) {
		workers = len(tpPercents)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tpPercents) {
					return
				}
				lc := cfg
				lc.share = shares[i]
				out[i] = level(ctx, base, lc, tpPercents[i])
				if sh := shares[i]; sh != nil && !sh.twin {
					// A wrapper may answer a level without RunLevel:
					// its twins then run their own layouts.
					sh.run.settle(nil)
				}
			}
		}()
	}
	wg.Wait()
	return out, nil
}
