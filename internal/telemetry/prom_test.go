package telemetry

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func scrape(t *testing.T, p *PromSink) string {
	t.Helper()
	srv := httptest.NewServer(p)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q, want text format 0.0.4", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestPromSinkExposition(t *testing.T) {
	p := NewPromSink("tpilayout")
	tr := New(p)

	sp := tr.StartSpan("atpg", 1)
	sp.Add("atpg.patterns", 412)
	h := sp.Hist("atpg.podem_ns")
	h.Observe(900)
	h.Observe(1100)
	h.Observe(1 << 30)
	sp.End()

	rt := tr.StartSpan("route", 1)
	rt.Add("route.overflows", 3)
	rt.Set("route.total_um", 0.875)
	rt.EndErr(errors.New("boom"))

	out := scrape(t, p)

	for _, want := range []string{
		"# TYPE tpilayout_atpg_patterns_total counter",
		`tpilayout_atpg_patterns_total{stage="atpg"} 412`,
		"# TYPE tpilayout_route_total_um gauge",
		`tpilayout_route_total_um{stage="route"} 0.875`,
		"# TYPE tpilayout_atpg_podem_ns histogram",
		`tpilayout_atpg_podem_ns_sum{stage="atpg"} 1073743824`,
		`tpilayout_atpg_podem_ns_count{stage="atpg"} 3`,
		`tpilayout_atpg_podem_ns_bucket{stage="atpg",le="+Inf"} 3`,
		"# TYPE tpilayout_stage_duration_ns histogram",
		`tpilayout_spans_total{stage="atpg"} 1`,
		`tpilayout_spans_total{stage="route"} 1`,
		`tpilayout_span_errors_total{stage="route"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Buckets are cumulative and monotone: 900 and 1100 straddle the
	// le=1024 bound, the 2^30 observation only reaches +Inf via the
	// cumulative sum.
	if !strings.Contains(out, `tpilayout_atpg_podem_ns_bucket{stage="atpg",le="1024"} 1`) {
		t.Errorf("le=1024 bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, `tpilayout_atpg_podem_ns_bucket{stage="atpg",le="2048"} 2`) {
		t.Errorf("le=2048 bucket wrong:\n%s", out)
	}

	// Basic text-format validity: every non-comment line is
	// name{labels} value.
	sample := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*\{[^}]*\} -?[0-9.eE+\-Inf]+$`)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestPromSinkLiveScrape: scraping mid-run (some spans still open) is
// safe and shows the closed spans — the live-sweep use case.
func TestPromSinkLiveScrape(t *testing.T) {
	p := NewPromSink("tpilayout")
	tr := New(p)
	root := tr.StartSpan("sweep", -1)
	run := root.ChildTP("run", 1)
	st := run.Child("place")
	st.Add("place.cuts", 7)
	st.End()
	// root and run still open.
	out := scrape(t, p)
	if !strings.Contains(out, `tpilayout_place_cuts_total{stage="place"} 7`) {
		t.Fatalf("mid-run scrape missing closed stage:\n%s", out)
	}
	if strings.Contains(out, `stage="sweep"`) {
		t.Fatalf("open span leaked into exposition:\n%s", out)
	}
	run.End()
	root.End()
	out = scrape(t, p)
	if !strings.Contains(out, `tpilayout_spans_total{stage="sweep"} 1`) {
		t.Fatalf("closed sweep missing:\n%s", out)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"atpg.podem_ns":  "atpg_podem_ns",
		"route.total_um": "route_total_um",
		"9lives":         "_lives",
		"a-b c":          "a_b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromLabelEscaping: stage and tenant values containing the three
// characters the text format escapes (backslash, quote, newline) render
// escaped, not raw.
func TestPromLabelEscaping(t *testing.T) {
	p := NewPromSink("t")
	p.Emit(Event{Type: EventSpanEnd, ID: 1, Stage: "we\"ird\\st\nage", DurNS: 5,
		Attrs: map[string]string{"tenant": "acme\"corp"}})
	out := scrape(t, p)
	want := `t_spans_total{stage="we\"ird\\st\nage",tenant="acme\"corp"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped series missing.\nwant: %s\ngot:\n%s", want, out)
	}
	if strings.Contains(out, "st\nage") {
		t.Errorf("raw newline leaked into exposition:\n%s", out)
	}
}

// TestPromTenantOverflow: beyond the tenant cap, new tenants fold into
// tenant="other" while established tenants keep their own series.
func TestPromTenantOverflow(t *testing.T) {
	p := NewPromSink("t")
	obs := func(tenant string) Event {
		return Event{Type: EventSpanEnd, ID: 0, Stage: "service",
			Counters: map[string]int64{"jobs_done": 1},
			Attrs:    map[string]string{"tenant": tenant}}
	}
	for i := 0; i < defaultTenantLimit; i++ {
		p.Emit(obs(fmt.Sprintf("t%02d", i)))
	}
	p.Emit(obs("gamma")) // over the cap: folded
	p.Emit(obs("delta")) // over the cap: folded
	p.Emit(obs("t00"))   // established tenant keeps its series

	out := scrape(t, p)
	for series, want := range map[string]string{
		`t_jobs_done_total{stage="service",tenant="t00"} 2`:                                      "t00 keeps its own series",
		fmt.Sprintf(`t_jobs_done_total{stage="service",tenant="t%02d"} 1`, defaultTenantLimit-1): "the last tenant under the cap",
		`t_jobs_done_total{stage="service",tenant="other"} 2`:                                    "gamma+delta folded into other",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("%s: missing %q\ngot:\n%s", want, series, out)
		}
	}
	if strings.Contains(out, "gamma") || strings.Contains(out, "delta") {
		t.Errorf("over-cap tenant leaked its own label:\n%s", out)
	}
}

// TestPromObservationEventsNotSpans: ID-0 metric flushes feed their
// counters/gauges but never the span families.
func TestPromObservationEventsNotSpans(t *testing.T) {
	p := NewPromSink("t")
	p.Emit(Event{Type: EventSpanEnd, ID: 0, Stage: "service",
		Counters: map[string]int64{"cache_hits": 3},
		Gauges:   map[string]float64{"queue_depth": 2}})
	out := scrape(t, p)
	if !strings.Contains(out, `t_cache_hits_total{stage="service"} 3`) ||
		!strings.Contains(out, `t_queue_depth{stage="service"} 2`) {
		t.Errorf("observation metrics missing:\n%s", out)
	}
	for _, family := range []string{"t_spans_total", "t_stage_last_duration_ns", "t_stage_duration_ns"} {
		if strings.Contains(out, family) {
			t.Errorf("observation event leaked into span family %s:\n%s", family, out)
		}
	}
}
