package tpilayout

import (
	"context"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsExpositionEndToEnd runs a real (scaled-down) sweep with a
// PromSink attached and scrapes it over HTTP, asserting the acceptance
// contract of the /metrics surface: valid Prometheus text format, and
// for every flow stage at least one counter, one gauge, and one
// histogram family carrying that stage's label.
func TestMetricsExpositionEndToEnd(t *testing.T) {
	design, err := Generate(S38417Class().Scale(0.05), DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewPromSink("tpilayout")
	cfg := ExperimentConfig("s38417c")
	cfg.Workers = 2
	cfg.Telemetry = NewTracer(sink)
	if _, err := SweepContext(context.Background(), design, cfg, []float64{0, 2}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(sink)
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
	out := sb.String()

	// Every stage of the flow (plus the run and sweep aggregates) must
	// expose all three metric kinds.
	stages := append([]string{"sweep", "run"}, traceStages...)
	for _, st := range stages {
		for _, fam := range []string{
			"tpilayout_spans_total",              // counter
			"tpilayout_stage_last_duration_ns",   // gauge
			"tpilayout_stage_duration_ns_bucket", // histogram
		} {
			if !strings.Contains(out, fmt.Sprintf("%s{stage=%q", fam, st)) {
				t.Errorf("stage %s missing family %s", st, fam)
			}
		}
	}

	// The hot-path instrumentation shows up as explicit histogram
	// families with nonzero counts.
	for _, fam := range []string{
		"tpilayout_atpg_podem_ns",
		"tpilayout_atpg_podem_bt_depth",
		"tpilayout_atpg_sim_batch_ns",
		"tpilayout_atpg_sim_detect_ns",
		"tpilayout_place_fm_cut_delta",
		"tpilayout_route_net_ns",
		"tpilayout_route_net_overflows",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" histogram") {
			t.Errorf("missing histogram family %s", fam)
			continue
		}
		re := regexp.MustCompile(regexp.QuoteMeta(fam) + `_count\{[^}]*\} ([0-9]+)`)
		m := re.FindStringSubmatch(out)
		if m == nil || m[1] == "0" {
			t.Errorf("histogram family %s has no observations", fam)
		}
	}

	// Text-format validity: every sample line is name{labels} value.
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
