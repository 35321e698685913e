package telemetry

import (
	"strings"
	"testing"
)

// Real trace lines (the trace-smoke artifact's shape) used as both
// error-path prefixes and fuzz seeds.
const (
	lineStart = `{"ev":"span_start","id":1,"stage":"run","tp":1,"t":"2026-08-06T12:00:00Z"}`
	lineEnd   = `{"ev":"span_end","id":1,"stage":"run","tp":1,"t":"2026-08-06T12:00:01Z","dur_ns":1000000000,"counters":{"atpg.patterns":412},"hists":{"atpg.podem_ns":{"n":2,"s":4000,"b":{"10":1,"12":1}}}}`
)

func TestParseTraceTruncatedLine(t *testing.T) {
	// A writer that died mid-line leaves a JSON fragment; the parse must
	// fail naming the line, not silently drop the tail.
	in := lineStart + "\n" + lineEnd[:37] + "\n"
	if _, err := ParseTrace(strings.NewReader(in)); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("truncated line: err = %v, want line-2 parse error", err)
	}
}

func TestParseTraceUnknownEventType(t *testing.T) {
	in := lineStart + "\n" + `{"ev":"span_weird","id":2,"stage":"x","tp":0,"t":"2026-08-06T12:00:00Z"}` + "\n"
	_, err := ParseTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "unknown event type") ||
		!strings.Contains(err.Error(), "span_weird") {
		t.Fatalf("unknown type: err = %v", err)
	}
}

func TestParseTraceOrphanEnd(t *testing.T) {
	// An end without a start is a balance problem, not a parse error —
	// the crashed-writer signature CI gates on via Balanced.
	tr, err := ParseTrace(strings.NewReader(lineEnd + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Balanced() || len(tr.Unbalanced) != 1 || tr.Unbalanced[0] != 1 {
		t.Fatalf("orphan end: balanced=%v unbalanced=%v", tr.Balanced(), tr.Unbalanced)
	}
	if len(tr.Spans) != 0 {
		t.Fatalf("orphan end produced a span: %+v", tr.Spans)
	}
}

func TestParseTraceHistPayload(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(lineStart + "\n" + lineEnd + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	h, ok := tr.Spans[0].Hists["atpg.podem_ns"]
	if !ok || h.Count != 2 || h.Sum != 4000 || h.Buckets[10] != 1 {
		t.Fatalf("hist payload = %+v", tr.Spans[0].Hists)
	}
}

func TestParseTraceBlankLinesSkipped(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("\n" + lineStart + "\n\n" + lineEnd + "\n\n"))
	if err != nil || len(tr.Spans) != 1 || !tr.Balanced() {
		t.Fatalf("blank lines: err=%v spans=%d", err, len(tr.Spans))
	}
}

// FuzzParseTrace: no input may panic or hang the parser — it either
// parses (possibly unbalanced) or returns an error.
func FuzzParseTrace(f *testing.F) {
	f.Add(lineStart + "\n" + lineEnd + "\n")
	f.Add(lineEnd + "\n" + lineStart + "\n") // orphan end then dangling start
	f.Add(lineStart[:20])
	f.Add(`{"ev":"span_weird"}`)
	f.Add("")
	f.Add("\n\n\n")
	f.Add(`{"ev":"span_end","id":-1,"stage":"","tp":-1,"dur_ns":-5}`)
	f.Add(`{"ev":"span_end","id":1,"hists":{"h":{"n":1,"s":1,"b":{"99":1}}}}`)
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		// Invariants of a successful parse: spans only from balanced
		// pairs, Balanced consistent with Unbalanced.
		if tr.Balanced() != (len(tr.Unbalanced) == 0) {
			t.Fatalf("Balanced()=%v but Unbalanced=%v", tr.Balanced(), tr.Unbalanced)
		}
		if len(tr.Spans) > len(tr.Events) {
			t.Fatalf("%d spans from %d events", len(tr.Spans), len(tr.Events))
		}
		// Quantile estimation must tolerate arbitrary parsed payloads.
		for _, s := range tr.Spans {
			for _, h := range s.Hists {
				_ = h.Quantile(0.5)
			}
		}
	})
}
