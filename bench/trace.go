package main

import (
	"os"
	"sync"

	"tpilayout/internal/flow"
	"tpilayout/internal/telemetry"
)

// memSink keeps a run's telemetry events in memory; they are written out
// once, after the measured phase. A nil *memSink is the untraced pass.
type memSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (m *memSink) Emit(e telemetry.Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

func (m *memSink) len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// since returns the events emitted after the first n. The measured phase
// starts with no span open, so the tail is a balanced trace of its own.
func (m *memSink) since(n int) []telemetry.Event {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]telemetry.Event(nil), m.events[n:]...)
}

// writeTrace writes events as the NDJSON cmd/tracestat reads.
func writeTrace(path string, events []telemetry.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := telemetry.NewNDJSONSink(f)
	for _, e := range events {
		sink.Emit(e)
	}
	return sink.Close()
}

// stageLayers maps the flow's stage span names to layer (package) names.
var stageLayers = map[string]string{
	flow.StageTPI: "tpi", flow.StageScan: "scan", flow.StagePlace: "place",
	flow.StageATPG: "atpg", flow.StageCTS: "cts", flow.StageECO: "eco",
	flow.StageRoute: "route", flow.StageExtract: "extract", flow.StageSTA: "sta",
}

// spanMetrics derives the per-op stage times, the ATPG phase split and the
// work counters from the measured phase's spans.
func spanMetrics(res *result, events []telemetry.Event) {
	tr := telemetry.TraceFromEvents(events)
	if !tr.Balanced() {
		res.failures = append(res.failures, "trace is unbalanced")
	}
	ops, l := res.ops(), res.layer
	stageS := map[string]float64{}
	counters := map[string]int64{}
	hists := map[string]telemetry.HistData{}
	var sweepS, stagesS float64
	sweeps := 0
	for _, sp := range tr.Spans {
		switch layer, isStage := stageLayers[sp.Stage]; {
		case isStage:
			stageS[layer] += sp.Duration.Seconds()
			stagesS += sp.Duration.Seconds()
		case sp.Stage == flow.StageSweep:
			sweepS += sp.Duration.Seconds()
			sweeps++
		}
		for k, v := range sp.Counters {
			counters[k] += v
		}
		for k, h := range sp.Hists {
			merged := hists[k]
			merged.Merge(h)
			hists[k] = merged
		}
	}
	for _, layer := range stageLayers {
		l[layer+".busy_s"] = stageS[layer] / ops
	}
	// What a sweep spends outside its stages: cloning and prewarming the
	// base circuit, scan reordering, assembling the metrics row.
	l["flow.other_s"] = (sweepS - stagesS) / ops

	perOp := func(name string) float64 { return float64(counters[name]) / ops }
	histS := func(name string) float64 { return float64(hists[name].Sum) / 1e9 / ops }
	l["atpg.podem_s"] = histS("atpg.podem_ns")
	l["atpg.sim_good_s"] = histS("atpg.sim_batch_ns")
	l["atpg.sim_detect_s"] = histS("atpg.sim_detect_ns")
	l["atpg.other_s"] = l["atpg.busy_s"] - l["atpg.podem_s"] - l["atpg.sim_good_s"] - l["atpg.sim_detect_s"]
	l["atpg.podem_p50_us"] = hists["atpg.podem_ns"].Quantile(0.50) / 1e3
	l["atpg.podem_p99_us"] = hists["atpg.podem_ns"].Quantile(0.99) / 1e3
	for _, name := range []string{"atpg.podem_targets", "atpg.podem_backtracks", "atpg.sim_detect_calls", "atpg.patterns",
		"atpg.aborted_classes", "atpg.untestable_classes", "tpi.points", "place.fm_moves_tried", "route.nets", "route.overflows", "cts.buffers"} {
		l[name] = perOp(name)
	}
	// PODEM targets whose pattern survived into the final set.
	l["atpg.podem_useful_ratio"] = ratio(float64(counters["atpg.det_kept"]), float64(counters["atpg.podem_targets"]))
	l["place.fm_accept_ratio"] = ratio(float64(counters["place.fm_moves"]), float64(counters["place.fm_moves_tried"]))
	l["atpg.fe_pct"] = res.quality.fePct()
	l["atpg.tdv_kbit"] = res.quality.tdvKbit()
	l["telemetry.events_per_sweep"] = ratio(float64(len(events)), float64(sweeps))
}

// procMetrics reports the whole process over the measured phase.
func procMetrics(res *result) {
	ops, l, b, e := res.ops(), res.layer, res.begin, res.end
	l["proc.cpu_per_wall"] = res.cpuS() / res.wallS()
	l["proc.alloc_mb_per_op"] = float64(e.allocBytes-b.allocBytes) / (1 << 20) / ops
	l["proc.allocs_per_op"] = float64(e.allocs-b.allocs) / ops
	l["proc.gc_cycles_per_op"] = float64(e.gcCycles-b.gcCycles) / ops
	l["proc.gc_cpu_pct"] = 100 * ratio(e.gcCPUS-b.gcCPUS, res.cpuS())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
