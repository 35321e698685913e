package tpilayout

// End-to-end test of the TPI service daemon: a real (reduced-scale)
// s38417c sweep is submitted over HTTP, its live span events are
// consumed over SSE while it runs, and the returned Tables 1–3 are
// pinned to the same golden file as the in-process sweep — the service
// layer is not allowed to change a single output byte. A second
// identical submission must be a cache hit that runs zero extra flows.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpilayout/internal/service"
	"tpilayout/internal/telemetry"
)

func TestServiceEndToEnd(t *testing.T) {
	prom := telemetry.NewPromSink("tpid")
	srv := service.New(service.Options{Workers: 2, FlowWorkers: 2, Sinks: []telemetry.Sink{prom}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.Handle("/metrics", prom)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The same sweep the golden test runs in-process: s38417c at 5%
	// scale, TP levels 0/2/5, the paper's s38417 preset.
	body, err := json.Marshal(service.JobRequest{
		Tenant:   "e2e",
		Circuit:  service.CircuitSpec{Spec: "s38417c", Scale: 0.05},
		TPLevels: []float64{0, 2, 5},
		Flow:     service.FlowConfig{Experiment: "s38417c"},
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Attach to the live event stream while the sweep runs. Reading it
	// to EOF yields the full NDJSON trace plus the terminal done frame.
	type sseResult struct {
		trace *telemetry.Trace
		final service.JobStatus
		err   error
	}
	sseCh := make(chan sseResult, 1)
	go func() {
		sseCh <- consumeSSE(ts.URL + "/v1/jobs/" + st.ID + "/events")
	}()

	// Poll to completion.
	deadline := time.Now().Add(5 * time.Minute)
	for {
		got := getJSON[service.JobStatus](t, ts.URL+"/v1/jobs/"+st.ID)
		if got.State == service.StateDone {
			break
		}
		if got.State == service.StateFailed || got.State == service.StateCanceled {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not finish in time (state %s)", got.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The result's rendered tables must match the committed golden file
	// byte for byte.
	res := getJSON[service.JobResult](t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if !res.Complete {
		t.Fatalf("result incomplete: %+v", res.Levels)
	}
	if res.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	rendered := res.Table1 + "\n" + res.Table2 + "\n" + res.Table3
	want, err := os.ReadFile(filepath.Join(goldenDir, "sweep_s38417c.golden"))
	if err != nil {
		t.Fatalf("missing golden file (run TestSweepGolden -update first): %v", err)
	}
	if rendered != string(want) {
		t.Errorf("service tables drifted from golden file\n%s", diffLines(string(want), rendered))
	}

	// The SSE stream: a parseable, balanced trace covering all three
	// levels, closed by a done frame.
	sse := <-sseCh
	if sse.err != nil {
		t.Fatalf("SSE stream: %v", sse.err)
	}
	if !sse.trace.Balanced() {
		t.Fatalf("SSE trace unbalanced: %v", sse.trace.Unbalanced)
	}
	if len(sse.trace.Spans) == 0 {
		t.Fatal("SSE trace carried no spans")
	}
	if got := fmt.Sprint(sse.trace.Levels()); got != "[0 2 5]" {
		t.Fatalf("SSE trace levels = %s, want [0 2 5]", got)
	}
	if sse.final.State != service.StateDone {
		t.Fatalf("SSE done frame state = %s, want done", sse.final.State)
	}

	// Second identical submission: answered from the cache, zero extra
	// flows executed.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit = %d, want 200", resp2.StatusCode)
	}
	var st2 service.JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("second identical submission was not a cache hit")
	}
	if n := srv.FlowRuns(); n != 1 {
		t.Fatalf("flow runs = %d, want 1 (cache must absorb the repeat)", n)
	}

	// The scrape shows both engine and service families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(mresp.Body).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	for _, fam := range []string{
		"tpid_service_flow_runs_total",
		"tpid_service_jobs_done_total",
		"tpid_service_cache_hit_jobs_total",
		"tpid_service_queue_wait_ns",
		"tpid_spans_total",
	} {
		if !strings.Contains(exposition, fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
}

// consumeSSE reads one /events stream to EOF, splitting the NDJSON data
// frames from the terminal done frame, and parses the former as a trace.
func consumeSSE(url string) (out struct {
	trace *telemetry.Trace
	final service.JobStatus
	err   error
}) {
	resp, err := http.Get(url)
	if err != nil {
		out.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("events = %d", resp.StatusCode)
		return
	}
	var ndjson bytes.Buffer
	var doneFrame string
	inDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			inDone = true
		case strings.HasPrefix(line, "data: "):
			if inDone {
				doneFrame = strings.TrimPrefix(line, "data: ")
			} else {
				ndjson.WriteString(strings.TrimPrefix(line, "data: "))
				ndjson.WriteByte('\n')
			}
		}
	}
	if err := sc.Err(); err != nil {
		out.err = err
		return
	}
	if doneFrame == "" {
		out.err = fmt.Errorf("stream ended without a done frame")
		return
	}
	if err := json.Unmarshal([]byte(doneFrame), &out.final); err != nil {
		out.err = fmt.Errorf("done frame: %w", err)
		return
	}
	out.trace, out.err = telemetry.ParseTrace(&ndjson)
	return
}

// getJSON fetches url and decodes its body into T.
func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	var v T
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}
