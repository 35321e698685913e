// Package telemetry is the flow's zero-dependency observability layer:
// nested wall-clock spans for every stage of the Figure 2 flow, the
// counters, gauges and histograms each span records for ATPG, placement,
// routing, clock-tree synthesis and STA, and pluggable sinks — an NDJSON
// event stream (one JSON object per line, jq/flamegraph-friendly), a
// flight-recorder ring, a Prometheus exposition, and live progress
// lines. A span's only record is its span_end event; ParseTrace and
// TraceFromEvents pair those back into spans.
//
// The layer is built to disappear: every method is safe on a nil
// *Tracer / *Span / *Hist receiver and returns immediately,
// so instrumented code holds plain pointers and pays one predictable nil
// check per call when telemetry is off. The disabled path allocates
// nothing and starts no goroutines.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// EventType discriminates the NDJSON event records.
type EventType string

const (
	// EventSpanStart is emitted when a span opens.
	EventSpanStart EventType = "span_start"
	// EventSpanEnd is emitted exactly once when a span closes; it carries
	// the duration, the error (if any), and the span's counter/gauge
	// values. A span_end with ID 0 is an observation event — a metric
	// flush with no matching span_start (the service emits these) — and
	// is exempt from trace balance checking.
	EventSpanEnd EventType = "span_end"
	// EventLog is a structured log record forwarded into the event
	// stream by Logger, so sinks (notably the flight recorder) retain
	// log lines interleaved with spans.
	EventLog EventType = "log"
)

// Event is one telemetry record. It doubles as the NDJSON wire format:
// the trace file is one JSON-marshalled Event per line.
type Event struct {
	Type   EventType `json:"ev"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"` // 0 = root span
	Stage  string    `json:"stage"`
	// TPPercent is the test-point level the span belongs to; -1 on spans
	// that aggregate several levels (the sweep root).
	TPPercent float64   `json:"tp"`
	Time      time.Time `json:"t"`
	// DurNS is the span's wall-clock duration in nanoseconds (span_end
	// only).
	DurNS int64 `json:"dur_ns,omitempty"`
	// CPUNS is the process CPU time (user+system) consumed while the
	// span was open, in nanoseconds (span_end only; 0 where rusage is
	// unavailable). It is a process-wide delta: exact when one flow runs
	// at a time, an attribution upper bound when runs overlap — the
	// pprof run_id/stage labels give the exact split.
	CPUNS    int64              `json:"cpu_ns,omitempty"`
	Err      string             `json:"err,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Hists carries the span's histogram snapshots (span_end only):
	// sparse power-of-two bucket populations, mergeable across spans and
	// across runs (see HistData).
	Hists map[string]HistData `json:"hists,omitempty"`
	// Attrs carries the emitting component's correlation identity
	// (run_id, job_id, tenant, ...) plus, on log records, the record's
	// structured fields. The map is shared across events from one
	// Tracer and must be treated as read-only by sinks.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Level and Msg are set on EventLog records only.
	Level string `json:"level,omitempty"`
	Msg   string `json:"msg,omitempty"`
}

// Sink consumes telemetry events. Emit must be safe for concurrent use:
// sweep workers close spans from multiple goroutines.
type Sink interface {
	Emit(e Event)
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Emit calls f.
func (f FuncSink) Emit(e Event) { f(e) }

// Tracer produces spans and fans their events out to its sinks. The
// zero-cost disabled state is a nil *Tracer, not a Tracer with no sinks.
type Tracer struct {
	sinks []Sink
	attrs map[string]string // stamped onto every event; read-only once set
	now   func() time.Time  // test hook; time.Now in production
}

// spanIDs numbers spans across every Tracer of the process, so runs
// whose tracers share a sink (tpid's flight recorder) never reuse an ID
// that ParseTrace pairs by.
var spanIDs atomic.Int64

// New returns a Tracer delivering events to the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks, now: time.Now}
}

// WithAttrs returns a Tracer sharing the receiver's sinks whose every
// event carries the given correlation attrs (merged over any the
// receiver already stamps). tpid uses this to stamp run_id/job_id/
// tenant onto every span a flow run emits. The attrs map is retained
// and shared by reference: callers must not mutate it, and sinks must
// treat Event.Attrs as read-only. Safe on a nil receiver (stays nil:
// disabled telemetry stays free).
func (t *Tracer) WithAttrs(attrs map[string]string) *Tracer {
	if t == nil || len(attrs) == 0 {
		return t
	}
	merged := make(map[string]string, len(t.attrs)+len(attrs))
	for k, v := range t.attrs {
		merged[k] = v
	}
	for k, v := range attrs {
		merged[k] = v
	}
	return &Tracer{sinks: t.sinks, attrs: merged, now: t.now}
}

// Attr returns the named correlation attr stamped on the tracer's
// events ("" when unset or on a nil receiver). Flow uses it to carry
// the service's run_id into pprof labels.
func (t *Tracer) Attr(key string) string {
	if t == nil {
		return ""
	}
	return t.attrs[key]
}

// StartSpan opens a root span for one flow stage or sweep level. Safe on
// a nil receiver (returns a nil span; the whole subtree is then free).
func (t *Tracer) StartSpan(stage string, tpPercent float64) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(nil, stage, tpPercent)
}

func (t *Tracer) newSpan(parent *Span, stage string, tp float64) *Span {
	s := &Span{tr: t, id: spanIDs.Add(1), stage: stage, tp: tp, start: t.now(), cpuStart: procCPUNS()}
	if parent != nil {
		s.parent = parent.id
	}
	// A sink that panics on this span_start would leave the span open for
	// good: the caller has no *Span yet for its deferred close to end. So
	// the span ends itself, with the panic as its error, and the panic
	// goes on. Sinks listed behind the panicking one see that end alone.
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("panic: %v", r)
			}
			s.EndErr(err)
			panic(r)
		}
	}()
	t.emit(Event{Type: EventSpanStart, ID: s.id, Parent: s.parent, Stage: stage, TPPercent: tp, Time: s.start})
	return s
}

func (t *Tracer) emit(e Event) {
	if e.Attrs == nil {
		e.Attrs = t.attrs
	}
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Span is one timed region — a flow stage, a sweep level, or a whole
// run. Spans nest via Child, carry per-span counters, gauges and
// histograms, and close exactly once (End is idempotent, so a deferred
// safety close after an explicit close is a no-op). All methods are
// safe on a nil receiver and safe for concurrent use; a *Hist belongs
// to the goroutine that ends its span.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64 // 0 = root span
	stage  string
	tp     float64
	start  time.Time
	// cpuStart is the process CPU clock at span open; EndErr records the
	// delta as the span's CPU attribution.
	cpuStart int64

	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Hist
	ended    bool
}

// Stage returns the span's stage name ("" on nil).
func (s *Span) Stage() string {
	if s == nil {
		return ""
	}
	return s.stage
}

// TPPercent returns the span's test-point level (0 on nil).
func (s *Span) TPPercent() float64 {
	if s == nil {
		return 0
	}
	return s.tp
}

// Child opens a nested span inheriting the parent's TP level.
func (s *Span) Child(stage string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s, stage, s.tp)
}

// ChildTP opens a nested span at an explicit TP level (the sweep root
// uses it to open one child per level).
func (s *Span) ChildTP(stage string, tpPercent float64) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s, stage, tpPercent)
}

// Add adds n to the span's named counter. A name added to twice sums.
func (s *Span) Add(name string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.counters == nil {
			s.counters = make(map[string]int64)
		}
		s.counters[name] += n
	}
	s.mu.Unlock()
}

// Set records the span's named gauge; the last value set wins.
func (s *Span) Set(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.gauges == nil {
			s.gauges = make(map[string]float64)
		}
		s.gauges[name] = v
	}
	s.mu.Unlock()
}

// Hist returns the span's named histogram, the same one for every call
// with that name. Only the goroutine that ends the span may observe
// into it. On a nil span it returns nil, whose Observe is one nil check.
func (s *Span) Hist(name string) *Hist {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hists[name]
	if h == nil {
		if s.hists == nil {
			s.hists = make(map[string]*Hist)
		}
		h = &Hist{}
		s.hists[name] = h
	}
	return h
}

// End closes the span successfully.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span, recording err (nil for success): the duration
// is fixed, counters, gauges and histograms are flushed, and one
// span_end event is emitted. Only the first close wins; later calls are
// no-ops, which lets a deferred EndErr guarantee balance on panic/error
// paths without double-emitting on the happy path.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	end := s.tr.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	e := Event{
		Type: EventSpanEnd, ID: s.id, Parent: s.parent, Stage: s.stage,
		TPPercent: s.tp, Time: s.start, DurNS: int64(end.Sub(s.start)),
	}
	if s.cpuStart != 0 {
		if cpu := procCPUNS() - s.cpuStart; cpu > 0 {
			e.CPUNS = cpu
		}
	}
	if err != nil {
		e.Err = err.Error()
	}
	// The span is closed to further writes, so its maps can ride the
	// event as they are once the dropped entries are gone.
	for name, v := range s.counters {
		if v == 0 {
			delete(s.counters, name)
		}
	}
	if len(s.counters) > 0 {
		e.Counters = s.counters
	}
	for name, v := range s.gauges {
		// NaN/Inf would poison json.Marshal of the NDJSON line; drop them.
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			delete(s.gauges, name)
		}
	}
	if len(s.gauges) > 0 {
		e.Gauges = s.gauges
	}
	for name, h := range s.hists {
		if h.n == 0 {
			continue
		}
		if e.Hists == nil {
			e.Hists = make(map[string]HistData, len(s.hists))
		}
		e.Hists[name] = h.data()
	}
	s.mu.Unlock()
	s.tr.emit(e)
}
