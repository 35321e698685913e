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
	"tpilayout/internal/telemetry"
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
// immutable once prewarmed. It is the per-sweep setup step RunLevel
// expects, split out so a resuming caller (the service's checkpoint
// driver) can prewarm once and run individual levels à la carte.
func PrewarmBase(design *netlist.Netlist) *netlist.Netlist {
	base := design.Clone()
	base.Prewarm()
	return base
}

// RunLevel runs exactly one sweep level — the full Figure 2 flow at
// pct% test points on a fresh clone of the prewarmed base — and returns
// its LevelResult. It never panics: the worker-level recover that
// SweepPartial installs lives here, so a crashing level (inside a stage
// or outside, Clone included) degrades to LevelResult.Err, normally a
// *StageError wrapping a supervise.PanicError. cfg.TPPercent is
// overwritten with pct; cfg.TelemetrySpan (when non-nil) parents the
// level's run span, letting a resumed level join an existing sweep
// trace. This is the level-granular entry point checkpoint/resume and
// per-level retry are built on.
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
		r, err = RunInPlace(ctx, base.Clone(), c)
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]LevelResult, len(tpPercents))
	for i, pct := range tpPercents {
		out[i].TPPercent = pct
	}
	// One sweep-root span parents every level's run span, so a trace of
	// a parallel sweep still reads as one tree: sweep → run(tp) →
	// stages. The -1 level marks the root as a cross-level aggregate.
	var sweepSpan *telemetry.Span
	if cfg.TelemetrySpan != nil {
		sweepSpan = cfg.TelemetrySpan.ChildTP(StageSweep, -1)
	} else {
		sweepSpan = cfg.Telemetry.StartSpan(StageSweep, -1)
	}
	defer sweepSpan.End()
	base := PrewarmBase(design)

	runLevel := func(i int) {
		c := cfg
		c.TelemetrySpan = sweepSpan
		out[i] = RunLevel(ctx, base, c, tpPercents[i])
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tpPercents) {
		workers = len(tpPercents)
	}
	if workers <= 1 {
		for i := range tpPercents {
			runLevel(i)
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
				runLevel(i)
			}
		}()
	}
	wg.Wait()
	return out, nil
}
