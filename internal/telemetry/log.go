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
// over log/slog that renders text or JSON lines to a writer. Like
// Tracer, the disabled state is a nil *Logger: every method no-ops
// after one nil check and the call site allocates nothing
// (benchmark-pinned).
type Logger struct {
	h slog.Handler
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
// at or above level to w.
func NewLogger(w io.Writer, format string, level slog.Level) (*Logger, error) {
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
	return &Logger{h: h}, nil
}

// With returns a Logger with the given alternating key/value pairs
// bound to every subsequent record. The service binds
// job_id/run_id/tenant once per run and logs through the child.
func (l *Logger) With(args ...any) *Logger {
	if l == nil || len(args) == 0 {
		return l
	}
	return &Logger{h: slog.New(l.h).With(args...).Handler()}
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
	ctx := context.Background()
	if !l.h.Enabled(ctx, level) {
		return
	}
	r := slog.NewRecord(time.Now(), level, msg, 0)
	r.Add(args...)
	_ = l.h.Handle(ctx, r)
}
