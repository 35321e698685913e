package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// Logger is the service's leveled structured logger: a thin wrapper
// over log/slog that renders text or JSON lines to a writer and, in
// the same call, forwards each record as an EventLog telemetry event
// to its sinks — so the flight recorder retains log lines interleaved
// with spans. Like Tracer, the disabled state is a nil *Logger: every
// method no-ops after one nil check and the call site allocates
// nothing (benchmark-pinned).
type Logger struct {
	h     slog.Handler
	sinks []Sink
	attrs map[string]string // bound correlation attrs, stamped on events
	now   func() time.Time
}

// ParseLogLevel maps the -log-level flag values to slog levels.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

// NewLogger returns a Logger writing format ("text" or "json") lines
// at or above level to w, forwarding every record — regardless of
// level, so the flight recorder keeps debug detail even when stderr is
// quiet — to the given sinks as EventLog events.
func NewLogger(w io.Writer, format string, level slog.Level, sinks ...Sink) (*Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
	return &Logger{h: h, sinks: sinks, now: time.Now}, nil
}

// With returns a Logger with the given alternating key/value pairs
// bound to every subsequent record — both on the rendered line and in
// the forwarded event's attrs. The service binds job_id/run_id/tenant
// once per run and logs through the child.
func (l *Logger) With(args ...any) *Logger {
	if l == nil || len(args) == 0 {
		return l
	}
	sa := make([]slog.Attr, 0, (len(args)+1)/2)
	attrs := make(map[string]string, len(l.attrs)+(len(args)+1)/2)
	for k, v := range l.attrs {
		attrs[k] = v
	}
	for i := 0; i+1 < len(args); i += 2 {
		k, ok := args[i].(string)
		if !ok {
			k = fmt.Sprint(args[i])
		}
		sa = append(sa, slog.Any(k, args[i+1]))
		attrs[k] = fmt.Sprint(args[i+1])
	}
	return &Logger{h: l.h.WithAttrs(sa), sinks: l.sinks, attrs: attrs, now: l.now}
}

// Debug logs at debug level with alternating key/value args.
func (l *Logger) Debug(msg string, args ...any) {
	if l == nil {
		return
	}
	l.log(slog.LevelDebug, msg, args)
}

// Info logs at info level with alternating key/value args.
func (l *Logger) Info(msg string, args ...any) {
	if l == nil {
		return
	}
	l.log(slog.LevelInfo, msg, args)
}

// Warn logs at warn level with alternating key/value args.
func (l *Logger) Warn(msg string, args ...any) {
	if l == nil {
		return
	}
	l.log(slog.LevelWarn, msg, args)
}

// Error logs at error level with alternating key/value args.
func (l *Logger) Error(msg string, args ...any) {
	if l == nil {
		return
	}
	l.log(slog.LevelError, msg, args)
}

func (l *Logger) log(level slog.Level, msg string, args []any) {
	now := l.now()
	if l.h.Enabled(context.Background(), level) {
		r := slog.NewRecord(now, level, msg, 0)
		r.Add(args...)
		_ = l.h.Handle(context.Background(), r)
	}
	if len(l.sinks) == 0 {
		return
	}
	attrs := l.attrs
	if len(args) > 0 {
		attrs = make(map[string]string, len(l.attrs)+(len(args)+1)/2)
		for k, v := range l.attrs {
			attrs[k] = v
		}
		for i := 0; i+1 < len(args); i += 2 {
			k, ok := args[i].(string)
			if !ok {
				k = fmt.Sprint(args[i])
			}
			attrs[k] = fmt.Sprint(args[i+1])
		}
	}
	e := Event{Type: EventLog, Stage: attrs["stage"], Time: now, Level: level.String(), Msg: msg, Attrs: attrs}
	for _, s := range l.sinks {
		s.Emit(e)
	}
}
