// Package tpilayout reproduces the experimental study "Impact of Test
// Point Insertion on Silicon Area and Timing during Layout" (Vranken,
// Sapei, Wunderlich — DATE 2004) as a self-contained Go library.
//
// It bundles a complete miniature EDA flow: a 130 nm-class standard-cell
// library, gate-level netlists, testability analysis (SCOAP/COP),
// TSFF-based test point insertion, full-scan insertion with layout-driven
// chain reordering, PODEM ATPG with compaction and bit-parallel fault
// simulation, min-cut placement, clock-tree synthesis, global routing, RC
// extraction, and static timing analysis.
//
// The typical entry point is Sweep, which reruns the paper's experiment —
// six layouts per circuit, at 0%..5% test points — and returns one
// metrics row per layout covering the paper's Tables 1, 2 and 3:
//
//	design, _ := tpilayout.Generate(tpilayout.S38417Class(), tpilayout.DefaultLibrary())
//	rows, _ := tpilayout.Sweep(design, tpilayout.ExperimentConfig("s38417c"), []float64{0, 1, 2, 3, 4, 5})
//	fmt.Print(tpilayout.FormatTable1(rows))
//
// Execution is supervised end to end: the Context variants (RunContext,
// SweepContext, SweepPartial) honor cancellation inside every long loop,
// failures surface as typed *StageError values, ATPG runs can be
// deadline-bounded (returning a valid Truncated result, like an
// industrial abort), and a panicking sweep level degrades into one
// failed row instead of killing the process.
//
// Runs are observable: set Config.Telemetry to a NewTracer and every
// stage and sweep level reaches its sinks as span events, one span_end
// per span (NewNDJSONSink writes them, ParseTrace reads them back). On
// the command line, cmd/tpitables prints the tables for any set of
// circuits and levels, and cmd/tracestat summarizes one trace or
// compares two.
package tpilayout

import (
	"context"
	"io"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/flow"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/telemetry"
)

// Re-exported core types. The internal packages remain the implementation
// surface; these aliases are the supported public API.
type (
	// Spec describes a benchmark circuit profile.
	Spec = circuitgen.Spec
	// Netlist is a mapped gate-level design.
	Netlist = netlist.Netlist
	// Library is a standard-cell library.
	Library = stdcell.Library
	// Config selects DfT and layout parameters for one flow run.
	Config = flow.Config
	// Result is everything one flow run produces.
	Result = flow.Result
	// Metrics is one row across the paper's Tables 1–3.
	Metrics = flow.Metrics
	// DomainTiming is one Table 3 row (one clock domain of one layout).
	DomainTiming = flow.DomainTiming
	// StageError is the typed failure of one flow stage; every error
	// returned by Run/Sweep and their Context variants wraps one
	// (recoverable with errors.As).
	StageError = flow.StageError

	// Tracer is the observability entry point: set Config.Telemetry to a
	// NewTracer(...) and every flow stage and sweep level is timed and
	// counted into the attached sinks. A nil Tracer is free.
	Tracer = telemetry.Tracer
	// TraceSink consumes telemetry events (NDJSON writer, progress
	// printer, Prometheus exposition, or any custom implementation).
	TraceSink = telemetry.Sink
	// Trace is a parsed NDJSON trace file (see ParseTrace).
	Trace = telemetry.Trace
	// HistData is a histogram snapshot: the NDJSON/ledger wire form with
	// quantile estimation and index-wise merging.
	HistData = telemetry.HistData
	// PromSink folds telemetry into a Prometheus text exposition; mount
	// it on /metrics and attach it to a Tracer to scrape a live sweep.
	PromSink = telemetry.PromSink
)

// NewTracer builds a tracer delivering events to the given sinks.
func NewTracer(sinks ...TraceSink) *Tracer { return telemetry.New(sinks...) }

// NewNDJSONSink writes one JSON event per line to w (cmd/tracestat and
// jq read the format back).
func NewNDJSONSink(w io.Writer) *telemetry.NDJSONSink { return telemetry.NewNDJSONSink(w) }

// NewProgressSink prints a human-readable line per stage start/end.
func NewProgressSink(w io.Writer) *telemetry.ProgressSink { return telemetry.NewProgressSink(w) }

// NewPromSink builds a Prometheus /metrics exposition surface (text
// format 0.0.4) with every family namespaced under prefix.
func NewPromSink(prefix string) *PromSink { return telemetry.NewPromSink(prefix) }

// ParseTrace reads an NDJSON trace and reconstructs its spans,
// reporting unbalanced start/end pairs. Log events and service
// observation events (span_end with id 0) are collected separately and
// never count against balance.
func ParseTrace(r io.Reader) (*Trace, error) { return telemetry.ParseTrace(r) }

// DefaultLibrary returns the 130 nm-class standard-cell library used by
// all experiments.
func DefaultLibrary() *Library { return stdcell.Default() }

// Benchmark circuit profiles from the paper's setup.
func S38417Class() Spec       { return circuitgen.S38417Class() }
func WirelessCtrlClass() Spec { return circuitgen.WirelessCtrlClass() }
func DSPCoreClass() Spec      { return circuitgen.DSPCoreClass() }

// SpecByName resolves the experiment circuits by their paper names.
// Matching is case-insensitive and ignores surrounding whitespace, so
// "S38417 " resolves like "s38417".
func SpecByName(name string) (Spec, error) { return circuitgen.SpecByName(name) }

// Generate builds the netlist for a circuit spec.
func Generate(spec Spec, lib *Library) (*Netlist, error) {
	return circuitgen.Generate(spec, lib)
}

// Run executes the full Figure 2 flow once.
func Run(design *Netlist, cfg Config) (*Result, error) {
	return flow.RunContext(context.Background(), design, cfg)
}

// RunContext executes the full Figure 2 flow once under supervision: the
// context cancels the run within one work unit (one PODEM fault, one
// bisection cut, one routed net, one STA slice), every failure is a
// *StageError naming the failing stage and TP level, and panics anywhere
// in the flow are isolated into errors instead of crashing the process.
func RunContext(ctx context.Context, design *Netlist, cfg Config) (*Result, error) {
	return flow.RunContext(ctx, design, cfg)
}

// CriticalNets returns a TPI exclusion set from a baseline layout's
// critical paths (the Section 5 technique).
func CriticalNets(design *Netlist, cfg Config) (map[netlist.NetID]bool, error) {
	return flow.CriticalNets(design, cfg)
}

// ExperimentConfig returns the per-circuit flow configuration the paper
// describes: chains of at most 100 flops for s38417 and circuit 1 with
// 97% row utilization, at most 32 chains and 50% utilization for p26909.
func ExperimentConfig(circuit string) Config { return flow.ExperimentConfig(circuit) }

// LevelResult is the outcome of one level of a partial-failure sweep:
// either Metrics (Err == nil) or the level's typed failure (Err != nil,
// normally a *StageError). TPPercent identifies the level either way.
type LevelResult = flow.LevelResult

// Sweep runs the flow for each test-point percentage and returns one
// metrics row per level, in order. Each distinct layout is generated from
// scratch (separate floorplans), exactly as the paper does; levels that
// round to the same test-point count share one layout.
//
// The layouts are independent, so Sweep fans them out over up to
// cfg.Workers goroutines (GOMAXPROCS when 0), each running the full
// Figure 2 flow on its own clone of design. Results are reassembled in
// input order and are bit-identical to a serial (Workers: 1) run; only
// the wall-clock time changes.
func Sweep(design *Netlist, cfg Config, tpPercents []float64) ([]Metrics, error) {
	return flow.SweepContext(context.Background(), design, cfg, tpPercents)
}

// SweepContext is Sweep under supervision: cancelling the context stops
// every in-flight layout within one work unit and returns the context's
// error. All levels are attempted; if any fail, the error of the first
// failing level in input order is returned (use SweepPartial to also
// recover the levels that completed).
func SweepContext(ctx context.Context, design *Netlist, cfg Config, tpPercents []float64) ([]Metrics, error) {
	return flow.SweepContext(ctx, design, cfg, tpPercents)
}

// SweepPartial is the graceful-degradation sweep: it runs every level and
// returns one LevelResult per TP percentage, in input order, so a failed,
// panicked, or timed-out level is reported in place while completed
// levels survive. The returned error is non-nil only for sweep-level
// problems (an invalid Config) — per-level failures live in the
// LevelResult.Err fields. Each worker is panic-isolated: one crashing
// level can neither kill the process nor poison its siblings.
func SweepPartial(ctx context.Context, design *Netlist, cfg Config, tpPercents []float64) ([]LevelResult, error) {
	return flow.SweepPartial(ctx, design, cfg, tpPercents)
}
