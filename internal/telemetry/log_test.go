package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
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

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "": slog.LevelInfo, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Error("ParseLogLevel(loud) should fail")
	}
}

func TestNewLoggerUnknownFormat(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "xml", slog.LevelInfo); err == nil {
		t.Fatal("unknown format should fail")
	}
}

func TestLoggerLevelFiltersOutput(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "text", slog.LevelWarn)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	out := buf.String()
	if strings.Contains(out, "msg=d") || strings.Contains(out, "msg=i") {
		t.Errorf("below-level records rendered:\n%s", out)
	}
	if !strings.Contains(out, "msg=w") || !strings.Contains(out, "msg=e") {
		t.Errorf("at/above-level records missing:\n%s", out)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	l.With("job_id", "j1").Info("job accepted", "tenant", "acme", "levels", 6)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not a JSON line: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "job accepted" || rec["job_id"] != "j1" || rec["tenant"] != "acme" || rec["levels"] != float64(6) {
		t.Errorf("fields wrong: %v", rec)
	}
}

// TestLoggerSinksGetAllLevels: sinks receive every record regardless of
// the handler level — the flight recorder keeps debug detail even when
// stderr is quiet.
func TestLoggerSinksGetAllLevels(t *testing.T) {
	var buf bytes.Buffer
	sink := &collectSink{}
	l, err := NewLogger(&buf, "text", slog.LevelError, sink)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hidden detail", "step", 3)
	if buf.Len() != 0 {
		t.Errorf("debug rendered despite level=error:\n%s", buf.String())
	}
	if len(sink.events) != 1 {
		t.Fatalf("sink got %d events, want 1", len(sink.events))
	}
	e := sink.events[0]
	if e.Type != EventLog || e.Level != "DEBUG" || e.Msg != "hidden detail" || e.Attrs["step"] != "3" {
		t.Errorf("event wrong: %+v", e)
	}
}

// TestLoggerWithBindsAttrs: With-bound pairs reach both the rendered
// line and every forwarded event, and stage routes into Event.Stage.
func TestLoggerWithBindsAttrs(t *testing.T) {
	var buf bytes.Buffer
	sink := &collectSink{}
	l, err := NewLogger(&buf, "text", slog.LevelInfo, sink)
	if err != nil {
		t.Fatal(err)
	}
	child := l.With("run_id", "r000001-ab", "tenant", "acme", "stage", "service")
	child.Info("run started", "queue_wait_ms", 12)

	out := buf.String()
	for _, want := range []string{"run_id=r000001-ab", "tenant=acme", "queue_wait_ms=12"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered line missing %q:\n%s", want, out)
		}
	}
	e := sink.events[0]
	if e.Attrs["run_id"] != "r000001-ab" || e.Attrs["tenant"] != "acme" || e.Attrs["queue_wait_ms"] != "12" {
		t.Errorf("event attrs wrong: %v", e.Attrs)
	}
	if e.Stage != "service" {
		t.Errorf("stage = %q, want service", e.Stage)
	}
	// The parent is untouched by the child's bindings.
	buf.Reset()
	l.Info("plain")
	if strings.Contains(buf.String(), "run_id") {
		t.Errorf("With leaked into parent:\n%s", buf.String())
	}
}

func TestLoggerNil(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	if l.With("k", "v") != nil {
		t.Fatal("nil logger must stay nil through With")
	}
}

// BenchmarkLoggerDisabled pins the nil-receiver call at zero
// allocations — instrumented code paths must be free when logging is
// off, including the variadic args.
func BenchmarkLoggerDisabled(b *testing.B) {
	var l *Logger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Info("job accepted", "job_id", "j1", "tenant", "acme")
	}
}
