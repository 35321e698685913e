package flow

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"tpilayout/internal/scan"
	"tpilayout/internal/telemetry"
)

// tracedConfig returns a small-circuit config with an NDJSON-sinked
// tracer attached; extra sinks sit behind the NDJSON one.
func tracedConfig(extra ...telemetry.Sink) (Config, *bytes.Buffer, *telemetry.NDJSONSink) {
	var buf bytes.Buffer
	sink := telemetry.NewNDJSONSink(&buf)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}}
	cfg.Place.TargetUtilization = 0.90
	cfg.TPPercent = 1
	cfg.Telemetry = telemetry.New(append([]telemetry.Sink{sink}, extra...)...)
	return cfg, &buf, sink
}

// atSpanStart is how these tests cancel, record or blow up at the entry
// of a stage: a sink that calls fn with every opening span's stage name
// and TP level, on the goroutine that opens it.
func atSpanStart(fn func(stage string, tp float64)) telemetry.Sink {
	return telemetry.FuncSink(func(e telemetry.Event) {
		if e.Type == telemetry.EventSpanStart {
			fn(e.Stage, e.TPPercent)
		}
	})
}

// The Fig. 2 stages every successful traced run must cover, in flow
// order.
var wantStages = []string{StageTPI, StageScan, StagePlace, StageATPG,
	StageCTS, StageECO, StageRoute, StageExtract, StageSTA}

// TestRunSpanTree: a traced run yields Result.Telemetry — a "run" root
// whose children are exactly the Fig. 2 stages in flow order, with the
// stage counters attached, and whose duration is covered (±5%) by the
// sum of the stage durations.
func TestRunSpanTree(t *testing.T) {
	n := design(t)
	cfg, buf, sink := tracedConfig()

	r, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sn := r.Telemetry
	if sn == nil || sn.Stage != StageRun || sn.TPPercent != 1 {
		t.Fatalf("run snapshot missing or wrong: %+v", sn)
	}
	var got []string
	var stageSum int64
	for _, c := range sn.Children {
		got = append(got, c.Stage)
		stageSum += int64(c.Duration)
	}
	if strings.Join(got, ",") != strings.Join(wantStages, ",") {
		t.Fatalf("stage order = %v, want %v", got, wantStages)
	}
	if sn.Duration <= 0 || float64(stageSum) < 0.95*float64(sn.Duration) {
		t.Errorf("stage durations (%d ns) cover less than 95%% of the run (%d ns)",
			stageSum, int64(sn.Duration))
	}
	// Spot-check the counter taxonomy at its stage homes.
	for stage, counter := range map[string]string{
		StageTPI:   "tpi.points",
		StageATPG:  "atpg.patterns",
		StagePlace: "place.fm_moves",
		StageRoute: "route.nets",
		StageSTA:   "sta.domains",
		StageCTS:   "cts.buffers",
	} {
		st := sn.Find(stage)
		if st == nil {
			t.Fatalf("no %s span", stage)
		}
		if st.Counters[counter] == 0 {
			t.Errorf("%s: counter %s missing or zero (have %v)", stage, counter, st.Counters)
		}
	}
	if pat := sn.Find(StageATPG).Counters["atpg.patterns"]; pat != int64(len(r.ATPG.Patterns)) {
		t.Errorf("atpg.patterns = %d, want %d", pat, len(r.ATPG.Patterns))
	}
	if bt := sn.Counter("atpg.podem_backtracks"); bt == 0 {
		t.Log("note: zero PODEM backtracks on this circuit (legal, but unusual)")
	}

	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := telemetry.ParseTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Balanced() {
		t.Fatalf("NDJSON trace unbalanced: %v", trace.Unbalanced)
	}
}

// TestPanicClosesSpan: a panic inside a stage must still close the open
// span, so the trace shows where the time went — the NDJSON trace stays
// balanced and the failing stage's span_end carries the error.
func TestPanicClosesSpan(t *testing.T) {
	n := design(t)
	cfg, buf, sink := tracedConfig(atSpanStart(func(stage string, tp float64) {
		if stage == StageRoute {
			panic("sink detonated mid-flow")
		}
	}))
	_, err := RunContext(context.Background(), n, cfg)
	if err == nil {
		t.Fatal("panicking stage returned nil error")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageRoute {
		t.Fatalf("err = %v, want StageError at route", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	trace, perr := telemetry.ParseTrace(buf)
	if perr != nil {
		t.Fatal(perr)
	}
	if !trace.Balanced() {
		t.Fatalf("panic left unbalanced spans: %v", trace.Unbalanced)
	}
	var routeEnd, runEnd *telemetry.SpanRecord
	for i := range trace.Spans {
		switch trace.Spans[i].Stage {
		case StageRoute:
			routeEnd = &trace.Spans[i]
		case StageRun:
			runEnd = &trace.Spans[i]
		}
	}
	if routeEnd == nil || routeEnd.Err == "" {
		t.Fatalf("route span_end missing its error: %+v", routeEnd)
	}
	if runEnd == nil || runEnd.Err == "" {
		t.Fatalf("run span_end missing its error: %+v", runEnd)
	}
}

// TestCancelClosesSpan: a context error surfacing at a stage boundary
// also leaves a balanced trace with the error on the open spans.
func TestCancelClosesSpan(t *testing.T) {
	n := design(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg, buf, sink := tracedConfig(atSpanStart(func(stage string, tp float64) {
		if stage == StagePlace {
			cancel()
		}
	}))
	_, err := RunContext(ctx, n, cfg)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	trace, perr := telemetry.ParseTrace(buf)
	if perr != nil {
		t.Fatal(perr)
	}
	if !trace.Balanced() {
		t.Fatalf("cancel left unbalanced spans: %v", trace.Unbalanced)
	}
}

// TestTelemetryOffIsFree: without a tracer the run produces no snapshot
// and behaves identically.
func TestTelemetryOffIsFree(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}}
	cfg.Place.TargetUtilization = 0.90
	cfg.TPPercent = 1
	r, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry != nil {
		t.Fatal("untraced run grew a telemetry snapshot")
	}
}
