package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func flightEvent(i int) Event {
	return Event{Type: EventLog, ID: 0, Stage: "service", Time: time.Unix(0, int64(i)),
		Level: "INFO", Msg: fmt.Sprintf("m%d", i)}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 3; i++ {
		f.Emit(flightEvent(i))
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	snap := f.Snapshot()
	for i, e := range snap {
		if e.Msg != fmt.Sprintf("m%d", i) {
			t.Fatalf("snapshot[%d] = %q, want m%d", i, e.Msg, i)
		}
	}
}

func TestFlightRecorderRotation(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 11; i++ { // wraps the 4-slot ring almost three times
		f.Emit(flightEvent(i))
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	snap := f.Snapshot()
	want := []string{"m7", "m8", "m9", "m10"} // oldest-first, newest retained
	for i, e := range snap {
		if e.Msg != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q (full: %v)", i, e.Msg, want[i], snap)
		}
	}
}

func TestFlightRecorderDefaultSize(t *testing.T) {
	f := NewFlightRecorder(0)
	if got := len(f.buf); got != DefaultFlightEvents {
		t.Fatalf("default ring size = %d, want %d", got, DefaultFlightEvents)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Emit(flightEvent(0)) // must not panic
	if f.Len() != 0 || f.Snapshot() != nil {
		t.Fatal("nil recorder must be empty")
	}
	var buf bytes.Buffer
	if err := f.WriteNDJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteNDJSON: err=%v, wrote %d bytes", err, buf.Len())
	}
}

// TestFlightRecorderNDJSONRoundTrip: a dump parses back through
// ParseTrace, with spans balanced and log records collected.
func TestFlightRecorderNDJSONRoundTrip(t *testing.T) {
	f := NewFlightRecorder(16)
	tr := New(f).WithAttrs(map[string]string{"run_id": "r1"})
	sp := tr.StartSpan("atpg", 2)
	sp.End()
	f.Emit(flightEvent(1))

	var buf bytes.Buffer
	if err := f.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("dump does not re-parse: %v\ndump:\n%s", err, buf.String())
	}
	if !trace.Balanced() || len(trace.Spans) != 1 || len(trace.Logs) != 1 {
		t.Fatalf("round trip: balanced=%v spans=%d logs=%d", trace.Balanced(), len(trace.Spans), len(trace.Logs))
	}
	if trace.Spans[0].Attrs["run_id"] != "r1" {
		t.Fatalf("correlation attrs lost: %+v", trace.Spans[0].Attrs)
	}
}

// TestFlightRecorderConcurrent hammers the ring from many goroutines
// while snapshots run — the -race CI lane is the real assertion here.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Emit(flightEvent(g*1000 + i))
				if i%100 == 0 {
					_ = f.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if f.Len() != 64 {
		t.Fatalf("Len = %d, want full ring 64", f.Len())
	}
	snap := f.Snapshot()
	for _, e := range snap {
		if e.Msg == "" {
			t.Fatal("snapshot contains a zero event after 4000 writes")
		}
	}
}

// BenchmarkFlightRecorderDisabled pins the nil-receiver fast path at
// zero allocations — always-on instrumentation must cost nothing when
// the recorder is off.
func BenchmarkFlightRecorderDisabled(b *testing.B) {
	var f *FlightRecorder
	e := flightEvent(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Emit(e)
	}
}

// BenchmarkFlightRecorderEmit measures the enabled steady-state write:
// one mutex round trip and a slot copy, no allocations.
func BenchmarkFlightRecorderEmit(b *testing.B) {
	f := NewFlightRecorder(4096)
	e := flightEvent(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Emit(e)
	}
}

// TestInterleavedRunsInOneRing: tpid gives each run its own tracer over
// shared sinks, so two runs in flight interleave in the flight ring.
// Span IDs are unique per process, so the dump still pairs every start
// with its own end.
func TestInterleavedRunsInOneRing(t *testing.T) {
	rec := NewFlightRecorder(16)
	a := New(rec).WithAttrs(map[string]string{"run_id": "rA"})
	b := New(rec).WithAttrs(map[string]string{"run_id": "rB"})
	runA := a.StartSpan("run", 0)
	runB := b.StartSpan("run", 2)
	atpgA := runA.Child("atpg")
	atpgB := runB.Child("atpg")
	atpgA.End()
	runA.End()
	atpgB.End()
	runB.End()

	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
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
