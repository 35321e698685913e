package telemetry

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// SpanRecord is one reconstructed span of a parsed NDJSON trace: the
// matched start/end pair with the end event's payload.
type SpanRecord struct {
	ID        int64
	Parent    int64
	Stage     string
	TPPercent float64
	Start     time.Time
	Duration  time.Duration
	CPUNS     int64
	Err       string
	Counters  map[string]int64
	Gauges    map[string]float64
	Hists     map[string]HistData
	// Attrs is the span's correlation identity (run_id, job_id, tenant)
	// as stamped on its span_end event.
	Attrs map[string]string
}

// Trace is a parsed NDJSON trace file.
type Trace struct {
	Events []Event
	// Spans holds every balanced start/end pair, in end-event order.
	Spans []SpanRecord
	// Unbalanced lists span IDs that started but never ended, or ended
	// without a start — a crashed or mis-instrumented run. A span_end
	// with ID 0 and no start is a metric flush (queue depth, cache hits,
	// per-tenant SLO samples), not a span, and does not count.
	Unbalanced []int64
}

// sniffGzip wraps r so gzip-compressed input (detected by the 0x1f 0x8b
// magic bytes) is transparently decompressed; plain input passes
// through. Archived traces are stored gzipped, so tracestat accepts
// either form from the same argument.
func sniffGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err == io.EOF {
		return br, nil // shorter than 2 bytes: not gzip, let the parser see it
	}
	if err != nil {
		return nil, err
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		return gzip.NewReader(br)
	}
	return br, nil
}

// ParseTrace reads an NDJSON trace, transparently decompressing gzip
// input. Every line must parse as an Event; a malformed line is an
// error (a trace that tails off mid-line came from a crashed writer).
// Balance problems are reported in Trace.Unbalanced, not as an error —
// call Balanced to gate on them.
func ParseTrace(r io.Reader) (*Trace, error) {
	rr, err := sniffGzip(r)
	if err != nil {
		return nil, err
	}
	b := newTraceBuilder()
	sc := bufio.NewScanner(rr)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if err := b.add(e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.finish(), nil
}

// TraceFromEvents reconstructs a trace from an in-memory event stream
// (e.g. a run's retained span events) — the same pairing rules as
// ParseTrace without the NDJSON round-trip. Events of unknown type are
// ignored.
func TraceFromEvents(events []Event) *Trace {
	b := newTraceBuilder()
	for _, e := range events {
		_ = b.add(e) // unknown types skipped; in-memory streams carry no others
	}
	return b.finish()
}

// traceBuilder accumulates events into a Trace, pairing span starts
// with ends.
type traceBuilder struct {
	tr   *Trace
	open map[int64]Event
}

func newTraceBuilder() *traceBuilder {
	return &traceBuilder{tr: &Trace{}, open: map[int64]Event{}}
}

func (b *traceBuilder) add(e Event) error {
	tr := b.tr
	switch e.Type {
	case EventSpanStart:
		b.open[e.ID] = e
	case EventSpanEnd:
		if _, openZero := b.open[0]; e.ID == 0 && !openZero {
			// A bare id-0 end with no matching start is a service
			// metric flush, not a span. (Tracers mint span ids from
			// 1, but a trace that DID start span 0 still pairs.)
			break
		}
		start, ok := b.open[e.ID]
		if !ok {
			tr.Unbalanced = append(tr.Unbalanced, e.ID)
			break
		}
		delete(b.open, e.ID)
		tr.Spans = append(tr.Spans, SpanRecord{
			ID: e.ID, Parent: e.Parent, Stage: e.Stage,
			TPPercent: e.TPPercent, Start: start.Time,
			Duration: time.Duration(e.DurNS), CPUNS: e.CPUNS, Err: e.Err,
			Counters: e.Counters, Gauges: e.Gauges, Hists: e.Hists,
			Attrs: e.Attrs,
		})
	default:
		return fmt.Errorf("unknown event type %q", e.Type)
	}
	tr.Events = append(tr.Events, e)
	return nil
}

func (b *traceBuilder) finish() *Trace {
	tr := b.tr
	for id := range b.open {
		tr.Unbalanced = append(tr.Unbalanced, id)
	}
	sort.Slice(tr.Unbalanced, func(i, j int) bool { return tr.Unbalanced[i] < tr.Unbalanced[j] })
	return tr
}

// Balanced reports whether every span start has a matching end and vice
// versa.
func (tr *Trace) Balanced() bool { return len(tr.Unbalanced) == 0 }

// Levels returns the distinct TP percentages of the trace's spans in
// ascending order, excluding the -1 aggregate sentinel.
func (tr *Trace) Levels() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, s := range tr.Spans {
		if s.TPPercent >= 0 && !seen[s.TPPercent] {
			seen[s.TPPercent] = true
			out = append(out, s.TPPercent)
		}
	}
	sort.Float64s(out)
	return out
}
