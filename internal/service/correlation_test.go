package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tpilayout/internal/flow"
	"tpilayout/internal/telemetry"
)

// syncBuffer is a goroutine-safe log destination: the service logs from
// handler and worker goroutines concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// logRecords decodes every JSON log line, returning the parsed maps.
func logRecords(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range b.Lines() {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return out
}

// TestEndToEndCorrelation is the tentpole acceptance test: one
// submission's job_id and run_id are visible — with the same values —
// in the HTTP response, the status API, every SSE span frame, the JSON
// service log, /metrics, and the data dir (proven by replay).
func TestEndToEndCorrelation(t *testing.T) {
	dir := t.TempDir()
	logBuf := &syncBuffer{}
	logger, err := telemetry.NewLogger(logBuf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	prom := telemetry.NewPromSink("tpid")
	lr := &levelRecorder{}
	opt := Options{Workers: 1, Sinks: []telemetry.Sink{prom}, Log: logger}
	s := openDurable(t, dir, opt, func(s *Server) { s.runLevel = lr.hook })
	ts := httptest.NewServer(s)

	// Submit with a client-chosen X-Request-ID: it becomes the job id
	// and is echoed back on the response.
	const reqID = "client-req.001"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(jobBody(t, "acme", 0, 2)))
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("X-Request-ID echo = %q, want %q", got, reqID)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != reqID {
		t.Fatalf("job id = %q, want the client request id %q", st.ID, reqID)
	}

	final := waitState(t, s, st.ID, StateDone)
	runID := final.RunID
	if runID == "" {
		t.Fatal("terminal status carries no run_id")
	}

	// SSE replay: every span frame carries the run's correlation attrs.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	sc := bufio.NewScanner(evResp.Body)
	inDone := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			inDone = true
		case strings.HasPrefix(line, "data: ") && !inDone:
			ndjson.WriteString(strings.TrimPrefix(line, "data: "))
			ndjson.WriteByte('\n')
		}
	}
	evResp.Body.Close()
	trace, err := telemetry.ParseTrace(&ndjson)
	if err != nil {
		t.Fatalf("SSE payload: %v", err)
	}
	if len(trace.Spans) == 0 {
		t.Fatal("SSE stream carried no spans")
	}
	for _, sp := range trace.Spans {
		if sp.Attrs["run_id"] != runID || sp.Attrs["job_id"] != reqID || sp.Attrs["tenant"] != "acme" {
			t.Fatalf("span %q attrs not correlated: %v", sp.Stage, sp.Attrs)
		}
	}

	// JSON log: accepted/started/finished lines carry both ids.
	var accepted, finished bool
	for _, rec := range logRecords(t, logBuf) {
		switch rec["msg"] {
		case "job accepted":
			accepted = rec["job_id"] == reqID && rec["run_id"] == runID && rec["tenant"] == "acme"
		case "run finished":
			finished = rec["job_id"] == reqID && rec["run_id"] == runID
		}
	}
	if !accepted || !finished {
		t.Fatalf("log lines missing or uncorrelated (accepted=%v finished=%v):\n%s",
			accepted, finished, strings.Join(logBuf.Lines(), "\n"))
	}

	// Per-tenant SLO families surfaced on /metrics with the tenant label.
	mrec := httptest.NewRecorder()
	prom.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	exposition := mrec.Body.String()
	for _, want := range []string{
		`tpid_service_jobs_done_total{stage="service",tenant="acme"} 1`,
		`tpid_service_tenant_e2e_ns_count{stage="service",tenant="acme"}`,
		`tpid_service_queue_wait_ns_count{stage="service",tenant="acme"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q:\n%s", want, exposition)
		}
	}

	// Journal: a restart replays the job under its original run_id —
	// the id was durably recorded at accept time.
	ts.Close()
	shutdown(t, s)
	s2 := openDurable(t, dir, opt, func(s *Server) { s.runLevel = lr.hook })
	defer shutdown(t, s2)
	replayed := getStatus(t, s2, st.ID)
	if replayed.RunID != runID {
		t.Fatalf("replayed run_id = %q, want the journaled %q", replayed.RunID, runID)
	}
	if replayed.State != StateDone {
		t.Fatalf("replayed state = %s, want done", replayed.State)
	}
}

// TestLevelPanicStackLogged: a level whose flow panics fails with a
// StageError carrying the panicking goroutine's stack, and the level's
// error log line holds that stack beside the run's correlation ids.
func TestLevelPanicStackLogged(t *testing.T) {
	logBuf := &syncBuffer{}
	logger, err := telemetry.NewLogger(logBuf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	induced := telemetry.FuncSink(func(e telemetry.Event) {
		if e.Type == telemetry.EventSpanStart && e.Stage == flow.StagePlace && e.TPPercent == 2 {
			panic("induced placement failure")
		}
	})
	s := New(Options{Workers: 1, Sinks: []telemetry.Sink{induced}, Log: logger})
	defer shutdown(t, s)
	// The tiny circuit rounds every level to 0 test points, so only the
	// first level of the sweep runs a layout: the 2% level goes first.
	_, st := postJob(t, s, jobBody(t, "acme", 2, 0))
	final := waitState(t, s, st.ID, StateDone)

	var lines []map[string]any
	for _, rec := range logRecords(t, logBuf) {
		if rec["msg"] == "level failed" {
			lines = append(lines, rec)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("%d level failed lines, want 1:\n%s", len(lines), strings.Join(logBuf.Lines(), "\n"))
	}
	rec := lines[0]
	if rec["level"] != "ERROR" || rec["run_id"] != final.RunID || rec["job_id"] != st.ID || rec["tp_percent"] != float64(2) {
		t.Errorf("level failed line not at error level or not correlated: %v", rec)
	}
	if err, _ := rec["error"].(string); !strings.Contains(err, "induced placement failure") {
		t.Errorf("error field %q does not name the panic", err)
	}
	// The stack is the panicking goroutine's: it runs through the sink.
	if stack, _ := rec["stack"].(string); !strings.Contains(stack, "TestLevelPanicStackLogged") {
		t.Errorf("stack field does not hold the panicking frame:\n%s", stack)
	}
}

// TestRequestIDValidation: malformed or colliding client ids are
// ignored in favor of minted ones — no 500s, no hijacked jobs.
func TestRequestIDValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Direct ServeHTTP so even header values a real client would refuse
	// to send (newlines) reach the validation path.
	submit := func(reqID string, level float64) JobStatus {
		t.Helper()
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(jobBody(t, "acme", level)))
		if reqID != "" {
			req.Header["X-Request-Id"] = []string{reqID}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Bad shapes: label injection, over-long, empty — all get minted ids.
	for _, bad := range []string{`evil"id`, "sp ace", strings.Repeat("x", 65), "newline\nid"} {
		st := submit(bad, 1)
		if st.ID == bad {
			t.Errorf("invalid request id %q was honored", bad)
		}
	}
	// A colliding id (already a live job) gets a minted id, not a clash.
	first := submit("dup-id", 2)
	if first.ID != "dup-id" {
		t.Fatalf("valid id not honored: %q", first.ID)
	}
	second := submit("dup-id", 3)
	if second.ID == "dup-id" || second.ID == "" {
		t.Fatalf("colliding id mishandled: %q", second.ID)
	}
}
