// Package telemetry is the flow's zero-dependency observability layer:
// nested wall-clock spans for every stage of the Figure 2 flow, typed
// counters and gauges recorded at the hot sites of ATPG, placement,
// routing, clock-tree synthesis and STA, and pluggable sinks — an
// in-memory snapshot tree, an NDJSON event stream (one JSON object per
// line, jq/flamegraph-friendly), a Prometheus exposition, and live
// progress lines.
//
// The layer is built to disappear: every method is safe on a nil
// *Tracer / *Span / *Counter / *Gauge receiver and returns immediately,
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
	ids   atomic.Int64
	now   func() time.Time // test hook; time.Now in production
}

// New returns a Tracer delivering events to the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks, now: time.Now}
}

// WithAttrs returns a Tracer sharing the receiver's sinks whose every
// event carries the given correlation attrs (merged over any the
// receiver already stamps). tpid uses this to stamp run_id/job_id/
// tenant onto every span a flow run emits. The derived tracer has its
// own span-ID sequence, so derive before opening spans, not mid-trace.
// The attrs map is retained and shared by reference: callers must not
// mutate it, and sinks must treat Event.Attrs as read-only. Safe on a
// nil receiver (stays nil: disabled telemetry stays free).
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
	s := &Span{tr: t, id: t.ids.Add(1), parent: parent, stage: stage, tp: tp, start: t.now(), cpuStart: procCPUNS()}
	var pid int64
	if parent != nil {
		pid = parent.id
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
	t.emit(Event{Type: EventSpanStart, ID: s.id, Parent: pid, Stage: stage, TPPercent: tp, Time: s.start})
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
// run. Spans nest via Child, carry per-span counters and gauges, and
// close exactly once (End is idempotent, so a deferred safety close
// after an explicit close is a no-op). All methods are safe on a nil
// receiver and safe for concurrent use.
type Span struct {
	tr     *Tracer
	id     int64
	parent *Span
	stage  string
	tp     float64
	start  time.Time
	// cpuStart is the process CPU clock at span open; EndErr records the
	// delta as the span's CPU attribution.
	cpuStart int64

	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	children []*Snapshot
	snap     *Snapshot // non-nil once ended
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

// Counter registers a named counter on the span. Its value is flushed
// into the span_end event and the snapshot. Registering the same name
// twice sums the two at flush time.
func (s *Span) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	c := &Counter{name: name}
	s.mu.Lock()
	s.counters = append(s.counters, c)
	s.mu.Unlock()
	return c
}

// Gauge registers a named gauge on the span.
func (s *Span) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	g := &Gauge{name: name}
	s.mu.Lock()
	s.gauges = append(s.gauges, g)
	s.mu.Unlock()
	return g
}

// Histogram registers a named histogram on the span. Its snapshot is
// flushed into the span_end event; registering the same name twice
// merges the two at flush time (index-wise bucket addition). On a nil
// span it returns a nil histogram, whose Observe (and whose Local
// shards) cost one nil check each.
func (s *Span) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	h := &Histogram{name: name}
	s.mu.Lock()
	s.hists = append(s.hists, h)
	s.mu.Unlock()
	return h
}

// Elapsed returns the wall time since the span opened (0 on nil). It
// does not close the span; flow uses it to feed the per-stage wall
// time into the stage's duration histogram just before the close.
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return s.tr.now().Sub(s.start)
}

// End closes the span successfully.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span, recording err (nil for success): the duration
// is fixed, counters and gauges are flushed, the snapshot is attached to
// the parent, and one span_end event is emitted. Only the first close
// wins; later calls are no-ops, which lets a deferred EndErr guarantee
// balance on panic/error paths without double-emitting on the happy
// path.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	end := s.tr.now()
	s.mu.Lock()
	if s.snap != nil {
		s.mu.Unlock()
		return
	}
	snap := &Snapshot{
		Stage:     s.stage,
		TPPercent: s.tp,
		Start:     s.start,
		Duration:  end.Sub(s.start),
		Children:  s.children,
	}
	if s.cpuStart != 0 {
		if cpu := procCPUNS() - s.cpuStart; cpu > 0 {
			snap.CPUNS = cpu
		}
	}
	if err != nil {
		snap.Err = err.Error()
	}
	for _, c := range s.counters {
		if v := c.Value(); v != 0 {
			if snap.Counters == nil {
				snap.Counters = make(map[string]int64, len(s.counters))
			}
			snap.Counters[c.name] += v
		}
	}
	for _, g := range s.gauges {
		// NaN/Inf would poison json.Marshal of the NDJSON line; drop them.
		if v := g.Value(); v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			if snap.Gauges == nil {
				snap.Gauges = make(map[string]float64, len(s.gauges))
			}
			snap.Gauges[g.name] = v
		}
	}
	for _, h := range s.hists {
		d := h.Snapshot()
		if d.Count == 0 {
			continue
		}
		if snap.Hists == nil {
			snap.Hists = make(map[string]HistData, len(s.hists))
		}
		merged := snap.Hists[h.name]
		merged.Merge(d)
		snap.Hists[h.name] = merged
	}
	s.snap = snap
	s.mu.Unlock()

	if s.parent != nil {
		s.parent.addChild(snap)
	}
	var pid int64
	if s.parent != nil {
		pid = s.parent.id
	}
	s.tr.emit(Event{
		Type: EventSpanEnd, ID: s.id, Parent: pid, Stage: s.stage,
		TPPercent: s.tp, Time: s.start, DurNS: int64(snap.Duration),
		CPUNS: snap.CPUNS,
		Err:   snap.Err, Counters: snap.Counters, Gauges: snap.Gauges,
		Hists: snap.Hists,
	})
}

func (s *Span) addChild(sn *Snapshot) {
	s.mu.Lock()
	s.children = append(s.children, sn)
	s.mu.Unlock()
}

// Snapshot returns the span's finished record, or nil before End. The
// snapshot owns its subtree: children appear in the order they closed
// (serial flow stages close in flow order; concurrent sweep levels close
// in completion order).
func (s *Span) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Counter is a monotonically increasing span-scoped metric. Adds are
// atomic, so shard goroutines may share one counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increases the counter; no-op on a nil receiver or n == 0.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins span-scoped metric.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set records the gauge value; no-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Snapshot is the in-memory record of one finished span and its
// subtree; flow attaches the run's snapshot to Result.Telemetry.
type Snapshot struct {
	Stage     string              `json:"stage"`
	TPPercent float64             `json:"tp"`
	Start     time.Time           `json:"start"`
	Duration  time.Duration       `json:"duration"`
	CPUNS     int64               `json:"cpu_ns,omitempty"`
	Err       string              `json:"err,omitempty"`
	Counters  map[string]int64    `json:"counters,omitempty"`
	Gauges    map[string]float64  `json:"gauges,omitempty"`
	Hists     map[string]HistData `json:"hists,omitempty"`
	Children  []*Snapshot         `json:"children,omitempty"`
}

// Find returns the first snapshot with the given stage name in a
// depth-first walk of the subtree (including the receiver), or nil.
func (sn *Snapshot) Find(stage string) *Snapshot {
	if sn == nil {
		return nil
	}
	if sn.Stage == stage {
		return sn
	}
	for _, c := range sn.Children {
		if f := c.Find(stage); f != nil {
			return f
		}
	}
	return nil
}

// Counter returns the named counter's value summed over the subtree.
func (sn *Snapshot) Counter(name string) int64 {
	if sn == nil {
		return 0
	}
	total := sn.Counters[name]
	for _, c := range sn.Children {
		total += c.Counter(name)
	}
	return total
}

// Hist returns the named histogram merged over the subtree — the
// cross-level aggregation a sweep root's snapshot exposes.
func (sn *Snapshot) Hist(name string) HistData {
	var d HistData
	if sn == nil {
		return d
	}
	if h, ok := sn.Hists[name]; ok {
		d.Merge(h)
	}
	for _, c := range sn.Children {
		d.Merge(c.Hist(name))
	}
	return d
}
