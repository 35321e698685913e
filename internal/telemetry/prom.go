package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// defaultTenantLimit bounds how many distinct tenant label values a
// PromSink will emit before folding new tenants into tenant="other".
// Prometheus series are priced per label combination; an unbounded
// tenant label would let one abusive client mint unbounded series.
const defaultTenantLimit = 32

// PromSink folds telemetry events into a live Prometheus exposition:
// every counter becomes a `<prefix>_<name>_total` counter family,
// every gauge a gauge family, every histogram a histogram family with
// cumulative `_bucket`/`_sum`/`_count` series, and every span close
// additionally feeds the built-in `<prefix>_stage_duration_ns`
// histogram, the `<prefix>_stage_last_duration_ns` gauge, and the
// `<prefix>_spans_total` / `<prefix>_span_errors_total` counters — so
// every stage has a counter, a gauge, and a duration distribution even
// where the stage itself records no explicit metrics. All series carry a
// stage="<span stage>" label; events whose attrs carry a tenant (the
// service's per-tenant SLO families) additionally carry a tenant label,
// bounded to defaultTenantLimit distinct values with an "other" overflow
// bucket.
//
// PromSink is both a Sink (attach it to a Tracer) and an http.Handler
// (mount it on /metrics): Emit and ServeHTTP synchronize on one mutex,
// so a long-running sweep can be scraped while it runs. The output is
// Prometheus text format version 0.0.4 — plain net/http, no client
// library dependency.
type PromSink struct {
	prefix string

	mu       sync.Mutex
	counters map[string]map[string]float64   // family -> label set -> value
	gauges   map[string]map[string]float64   // family -> label set -> value
	hists    map[string]map[string]*HistData // family -> label set -> merged data
	tenants  map[string]bool                 // tenants granted their own label value
}

// NewPromSink returns an empty exposition surface. prefix namespaces
// every family ("tpilayout" in the CLIs); it must already be a legal
// metric-name prefix or it is sanitized like everything else.
func NewPromSink(prefix string) *PromSink {
	return &PromSink{
		prefix:   promName(prefix),
		counters: map[string]map[string]float64{},
		gauges:   map[string]map[string]float64{},
		hists:    map[string]map[string]*HistData{},
		tenants:  map[string]bool{},
	}
}

// Emit folds a span_end event into the live metric state.
func (p *PromSink) Emit(e Event) {
	if e.Type != EventSpanEnd {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	labels := p.labelsLocked(e)
	if e.ID != 0 {
		// Observation events (ID 0) are bare metric flushes, not spans:
		// they carry no duration and should not count as spans.
		p.addCounter(p.prefix+"_spans_total", labels, 1)
		if e.Err != "" {
			p.addCounter(p.prefix+"_span_errors_total", labels, 1)
		}
		p.setGauge(p.prefix+"_stage_last_duration_ns", labels, float64(e.DurNS))
		p.mergeHist(p.prefix+"_stage_duration_ns", labels, HistData{
			Count: 1, Sum: e.DurNS,
			Buckets: map[int]uint64{histBucketOf(e.DurNS): 1},
		})
	}
	for name, v := range e.Counters {
		p.addCounter(p.prefix+"_"+promName(name)+"_total", labels, float64(v))
	}
	for name, v := range e.Gauges {
		p.setGauge(p.prefix+"_"+promName(name), labels, v)
	}
	for name, d := range e.Hists {
		p.mergeHist(p.prefix+"_"+promName(name), labels, d)
	}
}

// labelsLocked renders the event's label set — `stage="x"` plus, when
// the event carries a tenant attr, `,tenant="y"` bounded by the tenant
// cap. The rendered string is the series key, so identical label sets
// accumulate into one series and the exposition sorts by it.
func (p *PromSink) labelsLocked(e Event) string {
	labels := `stage="` + promLabel(e.Stage) + `"`
	if t := e.Attrs["tenant"]; t != "" {
		if !p.tenants[t] {
			if len(p.tenants) < defaultTenantLimit {
				p.tenants[t] = true
			} else {
				t = "other"
			}
		}
		labels += `,tenant="` + promLabel(t) + `"`
	}
	return labels
}

func (p *PromSink) addCounter(family, labels string, v float64) {
	if p.counters[family] == nil {
		p.counters[family] = map[string]float64{}
	}
	p.counters[family][labels] += v
}

func (p *PromSink) setGauge(family, labels string, v float64) {
	if p.gauges[family] == nil {
		p.gauges[family] = map[string]float64{}
	}
	p.gauges[family][labels] = v
}

func (p *PromSink) mergeHist(family, labels string, d HistData) {
	if p.hists[family] == nil {
		p.hists[family] = map[string]*HistData{}
	}
	acc := p.hists[family][labels]
	if acc == nil {
		acc = &HistData{}
		p.hists[family][labels] = acc
	}
	acc.Merge(d)
}

// ServeHTTP renders the exposition (Prometheus text format 0.0.4).
func (p *PromSink) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.writeExposition(w)
}

// writeExposition writes the full exposition to w, families sorted by name and
// series sorted by label set, so successive scrapes diff cleanly.
func (p *PromSink) writeExposition(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fam := range sortedKeys(p.counters) {
		fmt.Fprintf(w, "# TYPE %s counter\n", fam)
		for _, labels := range sortedKeys(p.counters[fam]) {
			fmt.Fprintf(w, "%s{%s} %s\n", fam, labels, promFloat(p.counters[fam][labels]))
		}
	}
	for _, fam := range sortedKeys(p.gauges) {
		fmt.Fprintf(w, "# TYPE %s gauge\n", fam)
		for _, labels := range sortedKeys(p.gauges[fam]) {
			fmt.Fprintf(w, "%s{%s} %s\n", fam, labels, promFloat(p.gauges[fam][labels]))
		}
	}
	for _, fam := range sortedKeys(p.hists) {
		fmt.Fprintf(w, "# TYPE %s histogram\n", fam)
		for _, labels := range sortedKeys(p.hists[fam]) {
			d := p.hists[fam][labels]
			// Cumulative buckets over the populated range only: a sparse
			// bucket set is valid exposition, and 64 mostly-empty series
			// per histogram would bloat every scrape.
			var idxs []int
			for i := range d.Buckets {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)
			var cum uint64
			for _, i := range idxs {
				cum += d.Buckets[i]
				le := "+Inf"
				if i < histBuckets-1 {
					le = strconv.FormatInt(HistBucketUpper(i), 10)
				}
				fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", fam, labels, le, cum)
			}
			if len(idxs) == 0 || idxs[len(idxs)-1] < histBuckets-1 {
				fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", fam, labels, cum)
			}
			fmt.Fprintf(w, "%s_sum{%s} %d\n", fam, labels, d.Sum)
			fmt.Fprintf(w, "%s_count{%s} %d\n", fam, labels, d.Count)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// promFloat renders a sample value: integral values without an
// exponent, everything else in Go's shortest form.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName sanitizes a telemetry name ("atpg.podem_ns") into a legal
// Prometheus metric-name fragment ("atpg_podem_ns").
func promName(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				b[i] = '_'
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// promLabel escapes a label value per the Prometheus text format:
// backslash, double quote, and newline are the only characters that
// need escaping inside a quoted label value.
func promLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for _, c := range []byte(s) {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
