package flow

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"tpilayout/internal/netlist"
	"tpilayout/internal/scan"
	"tpilayout/internal/supervise"
)

// runLabels builds the pprof label set attributing profile samples to
// one flow run: tp_level always, run_id when the service stamped one
// onto the telemetry tracer. Goroutines the stages spawn (fault-sim
// shards, sweep workers' children) inherit the labels, so a live
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
// one metrics row per layout, in order. Each layout is generated from
// scratch (separate floorplans), exactly as the paper does.
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
// (the service checkpoints around it) must hand it the cfg
// it was given, which is what ties the level's run span to the sweep.
type LevelFunc func(ctx context.Context, base *netlist.Netlist, cfg Config, pct float64) LevelResult

// RunLevel runs exactly one sweep level — the full Figure 2 flow at
// pct% test points on a fresh clone of the prewarmed base — and returns
// its LevelResult. It never panics: the worker-level recover of a sweep
// lives here, so a crashing level (inside a stage or outside, Clone
// included) degrades to LevelResult.Err, normally a *StageError wrapping
// a supervise.PanicError. cfg.TPPercent is overwritten with pct.
func RunLevel(ctx context.Context, base *netlist.Netlist, cfg Config, pct float64) (out LevelResult) {
	out.TPPercent = pct
	defer func() {
		if r := recover(); r != nil {
			pe := supervise.AsPanicError(r)
			out.Err = &StageError{Stage: StageSweep, TPPercent: pct, Err: pe, Stack: pe.Stack}
		}
	}()
	c := cfg
	c.TPPercent = pct
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
// results in input order. What happens around one level — nothing for a
// CLI sweep (RunLevel), checkpointing for the service — is
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

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tpPercents) {
		workers = len(tpPercents)
	}
	if workers <= 1 {
		for i, pct := range tpPercents {
			out[i] = level(ctx, base, cfg, pct)
		}
		return out, nil
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
				out[i] = level(ctx, base, cfg, tpPercents[i])
			}
		}()
	}
	wg.Wait()
	return out, nil
}
