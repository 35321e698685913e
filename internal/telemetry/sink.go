package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// NDJSONSink writes one JSON object per event to an io.Writer — the
// machine-readable trace format cmd/tracestat and jq consume. Writes are
// buffered and serialized; call Close (or Flush) before reading the
// output.
type NDJSONSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewNDJSONSink wraps w. If w is also an io.Closer (a file), Close
// closes it after flushing.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	s := &NDJSONSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit marshals the event as one NDJSON line. The first write error
// sticks and is reported by Close/Err.
func (s *NDJSONSink) Emit(e Event) {
	data, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(data); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Flush drains the buffer.
func (s *NDJSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Close flushes and closes the underlying writer (when it is closable),
// returning the first error the sink saw.
func (s *NDJSONSink) Close() error {
	err := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil {
		if cerr := s.c.Close(); cerr != nil && s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	if s.err != nil {
		return s.err
	}
	return err
}

// Err returns the sink's sticky error.
func (s *NDJSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ProgressSink prints one human-readable line per span start and end —
// the -progress surface of the CLIs. Lines are written atomically, so
// concurrent sweep workers interleave whole lines, never fragments.
type ProgressSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgressSink writes progress lines to w (normally os.Stderr).
func NewProgressSink(w io.Writer) *ProgressSink {
	return &ProgressSink{w: w}
}

// Emit prints "-> stage" on span start and "ok stage <dur>" (or
// "!! stage <dur> error: ...") on span end, tagged with the TP level.
func (s *ProgressSink) Emit(e Event) {
	var line string
	switch e.Type {
	case EventSpanStart:
		line = fmt.Sprintf("-> %-8s %s\n", e.Stage, tpLabel(e.TPPercent))
	case EventSpanEnd:
		d := time.Duration(e.DurNS).Round(100 * time.Microsecond)
		if e.Err != "" {
			line = fmt.Sprintf("!! %-8s %s  %-10v error: %s\n", e.Stage, tpLabel(e.TPPercent), d, e.Err)
		} else {
			line = fmt.Sprintf("ok %-8s %s  %v\n", e.Stage, tpLabel(e.TPPercent), d)
		}
	default:
		return
	}
	s.mu.Lock()
	io.WriteString(s.w, line)
	s.mu.Unlock()
}

// tpLabel renders a TP level column; the sweep root's -1 sentinel shows
// as a blank.
func tpLabel(tp float64) string {
	if tp < 0 {
		return "[  all ]"
	}
	return "[" + strconv.FormatFloat(tp, 'f', 1, 64) + "%]"
}
