package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// collectSink gathers every event for assertions.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestNilFastPath: the disabled layer is a nil tracer; every derived
// handle is nil and every operation is a no-op, never a panic.
func TestNilFastPath(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("run", 1)
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	child := sp.Child("atpg")
	if child != nil {
		t.Fatal("nil span produced a child")
	}
	child.Add("atpg.patterns", 5)
	child.Set("atpg.util", 0.5)
	child.Hist("atpg.podem_ns").Observe(5)
	sp.ChildTP("level", 2).EndErr(errors.New("x"))
	sp.End()
}

// TestSpanTreeEvents: a span's record is its span_end event — parent
// link, TP level, summed counters, gauges and the first close's error —
// and a second close emits nothing.
func TestSpanTreeEvents(t *testing.T) {
	rec := &collectSink{}
	tr := New(rec)
	root := tr.StartSpan("run", 2)
	a := root.Child("tpi")
	a.Add("tpi.points", 7)
	a.End()
	b := root.Child("atpg")
	b.Add("atpg.patterns", 100)
	b.Add("atpg.patterns", 1) // duplicate name sums
	b.Set("atpg.util", 0.75)
	b.EndErr(errors.New("boom"))
	b.End() // idempotent: only the first close wins
	root.End()

	trace := TraceFromEvents(rec.events)
	if !trace.Balanced() || len(trace.Events) != 6 {
		t.Fatalf("want 3 balanced spans in 6 events, got %d events, unbalanced %v", len(trace.Events), trace.Unbalanced)
	}
	var stages []string
	for _, sp := range trace.Spans {
		stages = append(stages, sp.Stage)
	}
	if strings.Join(stages, ",") != "tpi,atpg,run" {
		t.Fatalf("spans closed as %v, want tpi,atpg,run", stages)
	}
	tpiSpan, at, run := trace.Spans[0], trace.Spans[1], trace.Spans[2]
	if run.Parent != 0 || run.TPPercent != 2 {
		t.Fatalf("bad root span: %+v", run)
	}
	if tpiSpan.Parent != run.ID || at.Parent != run.ID || at.TPPercent != 2 {
		t.Fatalf("children not linked to the root at its level: %+v, %+v", tpiSpan, at)
	}
	if at.Counters["atpg.patterns"] != 101 || tpiSpan.Counters["tpi.points"] != 7 {
		t.Errorf("counters = %v, %v", at.Counters, tpiSpan.Counters)
	}
	if at.Gauges["atpg.util"] != 0.75 {
		t.Errorf("util = %g", at.Gauges["atpg.util"])
	}
	if at.Err != "boom" {
		t.Errorf("err = %q (second End must not overwrite)", at.Err)
	}
}

// TestInterleavedRunsShareSink: tpid gives each run its own tracer
// over shared sinks, so two runs in flight interleave in one stream.
// Span IDs are unique per process, so the stream still pairs every
// start with its own end.
func TestInterleavedRunsShareSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	a := New(sink).WithAttrs(map[string]string{"run_id": "rA"})
	b := New(sink).WithAttrs(map[string]string{"run_id": "rB"})
	runA := a.StartSpan("run", 0)
	runB := b.StartSpan("run", 2)
	atpgA := runA.Child("atpg")
	atpgB := runB.Child("atpg")
	atpgA.End()
	runA.End()
	atpgB.End()
	runB.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	trace, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Balanced() || len(trace.Spans) != 4 {
		t.Fatalf("got %d spans, unbalanced %v; want 4 balanced", len(trace.Spans), trace.Unbalanced)
	}
	runOf := map[int64]string{}
	for _, sp := range trace.Spans {
		if sp.Stage == "run" {
			runOf[sp.ID] = sp.Attrs["run_id"]
		}
	}
	for _, sp := range trace.Spans {
		if sp.Stage == "atpg" && runOf[sp.Parent] != sp.Attrs["run_id"] {
			t.Errorf("%s atpg span parented by run %q", sp.Attrs["run_id"], runOf[sp.Parent])
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	tr := New(sink)
	root := tr.StartSpan("run", 1)
	st := root.Child("place")
	st.Add("place.moves", 3)
	st.End()
	root.Child("route").EndErr(errors.New("net 4: no path"))
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // 3 starts + 3 ends
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i+1, err)
		}
	}
	trace, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Balanced() {
		t.Fatalf("unbalanced spans: %v", trace.Unbalanced)
	}
	if len(trace.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(trace.Spans))
	}
	var routeErr string
	for _, s := range trace.Spans {
		if s.Stage == "route" {
			routeErr = s.Err
		}
		if s.Stage == "place" && s.Counters["place.moves"] != 3 {
			t.Errorf("place counters = %v", s.Counters)
		}
	}
	if routeErr != "net 4: no path" {
		t.Errorf("route err = %q", routeErr)
	}
}

func TestParseTraceUnbalanced(t *testing.T) {
	in := `{"ev":"span_start","id":1,"stage":"run","tp":0,"t":"2026-01-01T00:00:00Z"}
{"ev":"span_start","id":2,"parent":1,"stage":"tpi","tp":0,"t":"2026-01-01T00:00:00Z"}
{"ev":"span_end","id":2,"parent":1,"stage":"tpi","tp":0,"t":"2026-01-01T00:00:00Z","dur_ns":5}
`
	trace, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Balanced() {
		t.Fatal("open span 1 not reported")
	}
	if len(trace.Unbalanced) != 1 || trace.Unbalanced[0] != 1 {
		t.Fatalf("Unbalanced = %v, want [1]", trace.Unbalanced)
	}
	if _, err := ParseTrace(strings.NewReader("{truncated")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestSinkPanicOnStartClosesSpan: a sink that panics while handling a
// span_start fires before the caller holds the span, so no deferred close
// of the caller's can end it. The span ends itself with the panic as its
// error, the panic still reaches the caller, and the trace the sinks ahead
// of the panicking one wrote stays balanced.
func TestSinkPanicOnStartClosesSpan(t *testing.T) {
	var buf bytes.Buffer
	nd := NewNDJSONSink(&buf)
	tr := New(nd, FuncSink(func(e Event) {
		if e.Type == EventSpanStart && e.Stage == "route" {
			panic("sink detonated")
		}
	}))
	root := tr.StartSpan("run", 2)
	root.Child("place").End()
	func() {
		defer func() {
			if r := recover(); r != "sink detonated" {
				t.Errorf("recovered %v, want the sink's panic value", r)
			}
			root.EndErr(errors.New("route failed"))
		}()
		root.Child("route")
		t.Error("Child returned past a panicking sink")
	}()
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Balanced() {
		t.Fatalf("span left open: %v", trace.Unbalanced)
	}
	for _, sp := range trace.Spans {
		if want := map[string]string{"place": "", "route": "panic: sink detonated", "run": "route failed"}[sp.Stage]; sp.Err != want {
			t.Errorf("%s span_end err = %q, want %q", sp.Stage, sp.Err, want)
		}
		if sp.Stage == "route" && sp.Parent != root.id {
			t.Errorf("route span_end names parent %d, want the run span %d", sp.Parent, root.id)
		}
	}
}

// TestConcurrentChildren models a parallel sweep: many goroutines open
// and close children of one root while adding to its counter. Run with
// -race.
func TestConcurrentChildren(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	tr := New(sink)
	root := tr.StartSpan("sweep", -1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lv := root.ChildTP("run", float64(i))
			lv.Add("work.items", int64(i))
			st := lv.Child("place")
			st.End()
			lv.End()
			root.Add("sweep.levels", 1)
		}(i)
	}
	wg.Wait()
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Balanced() {
		t.Fatalf("unbalanced: %v", trace.Unbalanced)
	}
	children := 0
	for _, sp := range trace.Spans {
		switch {
		case sp.Parent == root.id:
			children++
		case sp.ID == root.id && sp.Counters["sweep.levels"] != 8:
			t.Fatalf("shared counter = %d", sp.Counters["sweep.levels"])
		}
	}
	if children != 8 {
		t.Fatalf("root has %d children, want 8", children)
	}
	if got := trace.Levels(); len(got) != 8 {
		t.Fatalf("levels = %v", got)
	}
}

func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewProgressSink(&buf))
	sp := tr.StartSpan("place", 1.5)
	sp.End()
	tr.StartSpan("route", 2).EndErr(errors.New("bad"))
	out := buf.String()
	for _, want := range []string{"-> place", "ok place", "[1.5%]", "!! route", "error: bad"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

// TestGaugeNaNDropped: non-finite gauges must not poison the NDJSON
// marshal.
func TestGaugeNaNDropped(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	tr := New(sink)
	sp := tr.StartSpan("sta", 0)
	sp.Set("sta.slack", nan())
	sp.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTrace(&buf); err != nil {
		t.Fatalf("NaN gauge leaked into NDJSON: %v", err)
	}
}

func nan() float64 { var z float64; return z / z }

// The disabled-path benchmarks pin the "~ns overhead when off" claim;
// the whole point of the nil fast path is that instrumented hot loops
// cost nothing when no tracer is attached.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("stage", 1)
		sp.Add("x", 1)
		sp.End()
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	var sp *Span
	for i := 0; i < b.N; i++ {
		sp.Add("x", 1)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := New() // no sinks: measures span bookkeeping alone
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("stage", 1)
		sp.Add("x", 1)
		sp.End()
	}
}

func ExampleProgressSink() {
	tr := New(NewProgressSink(nopWriter{}))
	sp := tr.StartSpan("run", 1)
	defer sp.End()
	fmt.Println(sp.Stage(), sp.TPPercent())
	// Output: run 1
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
