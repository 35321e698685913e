package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tpilayout/internal/telemetry"
)

// testBench is a tiny but legal circuit: enough structure to parse,
// canonicalize, and hash, cheap enough to compile on every submission.
const testBench = `INPUT(a)
INPUT(b)
OUTPUT(y)
d1 = DFF(a) # domain=clk
y = NAND(d1, b)
`

// jobBody builds a submission for the test bench. Distinct levels give
// distinct cache keys, so tests pick levels to control coalescing.
func jobBody(t *testing.T, tenant string, levels ...float64) []byte {
	t.Helper()
	b, err := json.Marshal(JobRequest{
		Tenant:   tenant,
		Circuit:  CircuitSpec{Bench: testBench, Name: "tiny"},
		TPLevels: levels,
		Flow:     FlowConfig{SkipATPG: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func do(t *testing.T, s *Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func postJob(t *testing.T, s *Server, body []byte) (int, JobStatus) {
	t.Helper()
	code, resp := do(t, s, "POST", "/v1/jobs", body)
	var st JobStatus
	if code == http.StatusOK || code == http.StatusAccepted {
		if err := json.Unmarshal(resp, &st); err != nil {
			t.Fatalf("decoding submit response: %v\n%s", err, resp)
		}
	}
	return code, st
}

func getStatus(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	code, resp := do(t, s, "GET", "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET status %s = %d: %s", id, code, resp)
	}
	var st JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls a job until it reaches a terminal state and asserts it
// is the wanted one.
func waitState(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, s, id)
		if st.State.terminal() {
			if st.State != want {
				t.Fatalf("job %s ended %s (err=%q), want %s", id, st.State, st.Error, want)
			}
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func getResult(t *testing.T, s *Server, id string) (int, *JobResult) {
	t.Helper()
	code, resp := do(t, s, "GET", "/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		return code, nil
	}
	var res JobResult
	if err := json.Unmarshal(resp, &res); err != nil {
		t.Fatal(err)
	}
	return code, &res
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline, mirroring checkNoGoroutineLeak in the root cancel test.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// stubResult is what the fake flow returns: enough fields for result
// assertions without paying for a layout.
func stubResult(rn *run) *JobResult {
	res := &JobResult{
		Circuit:  rn.circuit,
		TPLevels: rn.levels,
		Table1:   "stub-table-1",
		Complete: true,
	}
	for _, tp := range rn.levels {
		res.Levels = append(res.Levels, LevelStatus{TPPercent: tp, OK: true})
	}
	return res
}

func TestSubmitLifecycle(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }

	code, st := postJob(t, s, jobBody(t, "acme", 0, 1, 2))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.Key == "" || st.Circuit != "tiny" {
		t.Fatalf("submit status incomplete: %+v", st)
	}
	waitState(t, s, st.ID, StateDone)

	code, res := getResult(t, s, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d, want 200", code)
	}
	if !res.Complete || res.Table1 != "stub-table-1" || res.CacheHit {
		t.Fatalf("unexpected result: %+v", res)
	}
	if got := fmt.Sprint(res.TPLevels); got != "[0 1 2]" {
		t.Fatalf("result levels = %s", got)
	}

	// Unknown job IDs are 404 on every job endpoint.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		if code, _ := do(t, s, "GET", path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestSingleflightAndCache is the headline acceptance test: two
// concurrent identical submissions execute exactly one flow, and a later
// identical submission is served from the result cache without queueing.
func TestSingleflightAndCache(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)

	started := make(chan struct{})
	release := make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		close(started)
		select {
		case <-release:
		case <-rn.ctx.Done():
			return nil, rn.ctx.Err()
		}
		return stubResult(rn), nil
	}

	body := jobBody(t, "acme", 0, 5)
	code1, st1 := postJob(t, s, body)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code1)
	}
	<-started // the flow is running; an identical submission must coalesce

	code2, st2 := postJob(t, s, body)
	if code2 != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", code2)
	}
	if !st2.Coalesced {
		t.Fatal("second identical submission did not coalesce onto the inflight run")
	}
	if st2.Key != st1.Key {
		t.Fatalf("identical submissions hashed differently: %s vs %s", st1.Key, st2.Key)
	}
	close(release)

	waitState(t, s, st1.ID, StateDone)
	waitState(t, s, st2.ID, StateDone)
	if n := s.FlowRuns(); n != 1 {
		t.Fatalf("two identical concurrent submissions ran %d flows, want 1", n)
	}

	// Both jobs see the same (non-cache-hit) result.
	for _, id := range []string{st1.ID, st2.ID} {
		code, res := getResult(t, s, id)
		if code != http.StatusOK || res.Table1 != "stub-table-1" {
			t.Fatalf("result for %s: code=%d res=%+v", id, code, res)
		}
	}

	// Third identical submission after the run finished: answered 200
	// straight from the cache, zero additional flows.
	code3, st3 := postJob(t, s, body)
	if code3 != http.StatusOK {
		t.Fatalf("cached submit = %d, want 200", code3)
	}
	if !st3.CacheHit || st3.State != StateDone {
		t.Fatalf("cached submit status: %+v", st3)
	}
	if n := s.FlowRuns(); n != 1 {
		t.Fatalf("cached submission re-ran the flow: %d runs", n)
	}
	code, res := getResult(t, s, st3.ID)
	if code != http.StatusOK || !res.CacheHit {
		t.Fatalf("cached result: code=%d cache_hit=%v", code, res.CacheHit)
	}
	if stats := s.Stats(); stats.CacheHits < 1 {
		t.Fatalf("cache hit counter = %d, want >= 1", stats.CacheHits)
	}
}

func TestQueueOverflow429(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-rn.ctx.Done():
			return nil, rn.ctx.Err()
		}
		return stubResult(rn), nil
	}

	// Job A occupies the single worker...
	codeA, stA := postJob(t, s, jobBody(t, "acme", 1))
	if codeA != http.StatusAccepted {
		t.Fatalf("submit A = %d", codeA)
	}
	<-started
	// ...job B fills the one queue slot...
	codeB, stB := postJob(t, s, jobBody(t, "acme", 2))
	if codeB != http.StatusAccepted {
		t.Fatalf("submit B = %d", codeB)
	}
	// ...and job C bounces with 429 + Retry-After.
	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(jobBody(t, "acme", 3)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("submit C = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if stats := s.Stats(); stats.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", stats.Rejected)
	}

	close(release)
	waitState(t, s, stA.ID, StateDone)
	waitState(t, s, stB.ID, StateDone)
}

func TestCancelMidRunFreesWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 1})

	started := make(chan struct{}, 4)
	s.runFlow = func(rn *run) (*JobResult, error) {
		if rn.levels[0] == 1 {
			// The long job: only cancellation lets it return.
			started <- struct{}{}
			<-rn.ctx.Done()
			return nil, rn.ctx.Err()
		}
		return stubResult(rn), nil
	}

	_, st := postJob(t, s, jobBody(t, "acme", 1))
	<-started
	if got := getStatus(t, s, st.ID); got.State != StateRunning {
		t.Fatalf("job state = %s, want running", got.State)
	}

	code, resp := do(t, s, "DELETE", "/v1/jobs/"+st.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", code, resp)
	}
	if got := getStatus(t, s, st.ID); got.State != StateCanceled {
		t.Fatalf("after DELETE state = %s, want canceled", got.State)
	}
	// DELETE is idempotent.
	if code, _ := do(t, s, "DELETE", "/v1/jobs/"+st.ID, nil); code != http.StatusOK {
		t.Fatalf("second DELETE = %d, want 200", code)
	}
	// The result of a canceled job is 410 Gone.
	if code, _ := getResult(t, s, st.ID); code != http.StatusGone {
		t.Fatalf("result of canceled job = %d, want 410", code)
	}

	// The single worker must come back: a fresh job completes.
	_, st2 := postJob(t, s, jobBody(t, "acme", 2))
	waitState(t, s, st2.ID, StateDone)

	if stats := s.Stats(); stats.JobsCanceled < 1 {
		t.Fatalf("canceled counter = %d, want >= 1", stats.JobsCanceled)
	}
	shutdown(t, s)
	waitGoroutines(t, before)
}

// TestCancelWhileQueuedSkipsFlow cancels a job that never left the
// queue: the flow must not run at all for it.
func TestCancelWhileQueuedSkipsFlow(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdown(t, s)

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-rn.ctx.Done():
			return nil, rn.ctx.Err()
		}
		return stubResult(rn), nil
	}

	_, stA := postJob(t, s, jobBody(t, "acme", 1)) // occupies the worker
	<-started
	_, stB := postJob(t, s, jobBody(t, "acme", 2)) // queued
	if code, _ := do(t, s, "DELETE", "/v1/jobs/"+stB.ID, nil); code != http.StatusOK {
		t.Fatal("cancel of queued job failed")
	}
	close(release)
	waitState(t, s, stA.ID, StateDone)

	// Only A's flow may ever have run; give the worker a moment to (not)
	// pick up B.
	time.Sleep(20 * time.Millisecond)
	if n := s.FlowRuns(); n != 1 {
		t.Fatalf("flow runs = %d, want 1 (canceled queued job must not run)", n)
	}
}

// TestConcurrentTenants is the -race fleet test: several tenants each
// submit a batch of distinct jobs through the full HTTP surface at once;
// everything completes, nothing leaks.
func TestConcurrentTenants(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 4, QueueDepth: 256})
	s.runFlow = func(rn *run) (*JobResult, error) {
		select {
		case <-time.After(time.Millisecond):
		case <-rn.ctx.Done():
			return nil, rn.ctx.Err()
		}
		return stubResult(rn), nil
	}

	const tenants, jobsPer = 4, 8
	var wg sync.WaitGroup
	ids := make(chan string, tenants*jobsPer)
	for k := 0; k < tenants; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < jobsPer; j++ {
				// Distinct level per (tenant, job) so no two submissions
				// coalesce: every job is its own flow.
				level := float64(k*jobsPer+j) / 10
				code, st := postJob(t, s, jobBody(t, fmt.Sprintf("t%d", k), level))
				if code != http.StatusAccepted {
					t.Errorf("tenant %d job %d: submit = %d", k, j, code)
					return
				}
				ids <- st.ID
			}
		}(k)
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		waitState(t, s, id, StateDone)
	}
	if n := s.FlowRuns(); n != tenants*jobsPer {
		t.Fatalf("flow runs = %d, want %d", n, tenants*jobsPer)
	}
	if stats := s.Stats(); stats.JobsDone != tenants*jobsPer {
		t.Fatalf("jobs done = %d, want %d", stats.JobsDone, tenants*jobsPer)
	}
	shutdown(t, s)
	waitGoroutines(t, before)
}

// TestEventsSSE streams a run's span events over the real HTTP stack and
// re-parses the payload with telemetry.ParseTrace: the stream must be a
// balanced trace followed by a terminal `done` frame.
func TestEventsSSE(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	started := make(chan struct{})
	release := make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		// Emit a balanced two-span trace through the run's broadcaster,
		// exactly as the real sweep's tracer would.
		tr := telemetry.New(rn.events)
		root := tr.StartSpan("sweep", -1)
		close(started)
		lvl := root.ChildTP("level", 5)
		select {
		case <-release:
		case <-rn.ctx.Done():
			return nil, rn.ctx.Err()
		}
		lvl.End()
		root.End()
		return stubResult(rn), nil
	}

	ts := httptest.NewServer(s)
	defer ts.Close()

	body := jobBody(t, "acme", 5)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-started

	// Connect mid-run: retention must replay the trace from event 0.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	close(release)

	// Collect SSE frames: `data:` lines carry NDJSON events until the
	// `event: done` terminal frame delivers the job status.
	var ndjson bytes.Buffer
	var doneFrame string
	inDone := false
	sc := bufio.NewScanner(evResp.Body)
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
		t.Fatalf("reading SSE stream: %v", err)
	}

	trace, err := telemetry.ParseTrace(&ndjson)
	if err != nil {
		t.Fatalf("SSE payload does not parse as a trace: %v", err)
	}
	if !trace.Balanced() {
		t.Fatalf("SSE trace unbalanced: %v", trace.Unbalanced)
	}
	if len(trace.Spans) != 2 {
		t.Fatalf("SSE trace has %d spans, want 2", len(trace.Spans))
	}
	if got := fmt.Sprint(trace.Levels()); got != "[5]" {
		t.Fatalf("trace levels = %s, want [5]", got)
	}
	if doneFrame == "" {
		t.Fatal("SSE stream ended without an `event: done` frame")
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(doneFrame), &final); err != nil {
		t.Fatalf("done frame: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("done frame state = %s, want done", final.State)
	}
}

// TestUncacheableBudgetJobs checks that ATPG-budgeted submissions are
// neither coalesced nor cached: their results depend on wall-clock speed.
func TestUncacheableBudgetJobs(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }

	req := JobRequest{
		Circuit:  CircuitSpec{Bench: testBench},
		TPLevels: []float64{0},
		Flow:     FlowConfig{SkipATPG: true, ATPGBudgetMS: 50},
	}
	body, _ := json.Marshal(req)
	_, st1 := postJob(t, s, body)
	waitState(t, s, st1.ID, StateDone)
	code2, st2 := postJob(t, s, body)
	if code2 != http.StatusAccepted {
		t.Fatalf("second budgeted submit = %d, want 202 (never a cache hit)", code2)
	}
	if st2.CacheHit || st2.Coalesced {
		t.Fatalf("budgeted job was cached/coalesced: %+v", st2)
	}
	waitState(t, s, st2.ID, StateDone)
	if n := s.FlowRuns(); n != 2 {
		t.Fatalf("budgeted flow runs = %d, want 2", n)
	}
}

// TestBadRequests walks the validation surface: every malformed
// submission is a clean 4xx.
func TestBadRequests(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `{{{`, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"no circuit", `{"tp_levels":[0]}`, http.StatusBadRequest},
		{"no levels", fmt.Sprintf(`{"circuit":{"bench":%q}}`, testBench), http.StatusBadRequest},
		{"level out of range", fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[101]}`, testBench), http.StatusBadRequest},
		{"bench and spec", fmt.Sprintf(`{"circuit":{"bench":%q,"spec":"s38417c"},"tp_levels":[0]}`, testBench), http.StatusBadRequest},
		{"unknown spec", `{"circuit":{"spec":"c17"},"tp_levels":[0]}`, http.StatusBadRequest},
		{"bad bench", `{"circuit":{"bench":"x = FROB(y)"},"tp_levels":[0]}`, http.StatusBadRequest},
		{"negative workers", fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"workers":-1}}`, testBench), http.StatusBadRequest},
		{"negative max_chain_length", fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"max_chains":5,"max_chain_length":-3}}`, testBench), http.StatusBadRequest},
		{"negative max_chains", fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"max_chains":-1}}`, testBench), http.StatusBadRequest},
		{"oversized scale", `{"circuit":{"spec":"s38417c","scale":99},"tp_levels":[0]}`, http.StatusBadRequest},
		// A flow option this build no longer has is an unknown field, and
		// the 400 names it.
		{"atpg_memo", fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"atpg_memo":true}}`, testBench), http.StatusBadRequest},
		{"sweep_mode", fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"sweep_mode":"full"}}`, testBench), http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, resp := do(t, s, "POST", "/v1/jobs", []byte(tc.body))
		if code != tc.want {
			t.Errorf("%s: code = %d, want %d (%s)", tc.name, code, tc.want, resp)
		}
		switch tc.name {
		case "atpg_memo", "sweep_mode":
			if !strings.Contains(string(resp), tc.name) {
				t.Errorf("%s: response does not name the field: %s", tc.name, resp)
			}
		}
	}
	if n := s.FlowRuns(); n != 0 {
		t.Fatalf("malformed submissions ran %d flows", n)
	}
}

// TestFailedRunReporting: a flow error surfaces as state failed and a
// 500 on the result endpoint, and is never cached.
func TestFailedRunReporting(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	s.runFlow = func(rn *run) (*JobResult, error) {
		return nil, fmt.Errorf("placement exploded")
	}
	body := jobBody(t, "acme", 7)
	_, st := postJob(t, s, body)
	got := waitState(t, s, st.ID, StateFailed)
	if !strings.Contains(got.Error, "placement exploded") {
		t.Fatalf("failed status error = %q", got.Error)
	}
	if code, _ := getResult(t, s, st.ID); code != http.StatusInternalServerError {
		t.Fatalf("result of failed job = %d, want 500", code)
	}
	// Failure is not cached: resubmitting runs the flow again.
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }
	code2, st2 := postJob(t, s, body)
	if code2 != http.StatusAccepted || st2.CacheHit {
		t.Fatalf("resubmit after failure: code=%d cache_hit=%v", code2, st2.CacheHit)
	}
	waitState(t, s, st2.ID, StateDone)
}

// TestSubmitRejectsTrailingData: a body is one JSON value and whitespace.
// Anything else after the value is a 400, even when the value alone is a
// job whose result is cached and aliased.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s := stubServer(t, Options{Workers: 1})
	body := jobBody(t, "acme", 0)
	submitDone(t, s, body)
	for _, tail := range []string{` trailing garbage {"x":1}`, `{}`, `]`, "\n0"} {
		code, resp := do(t, s, "POST", "/v1/jobs", append(slices.Clip(body), tail...))
		if code != http.StatusBadRequest || !strings.Contains(string(resp), "data after the request") {
			t.Errorf("tail %q: %d %s, want 400 naming the data after the request", tail, code, resp)
		}
	}
	if code, st := postJob(t, s, append(slices.Clip(body), " \t\r\n"...)); code != http.StatusOK || !st.CacheHit {
		t.Fatalf("body with trailing whitespace = %d cache_hit=%v, want 200 hit", code, st.CacheHit)
	}
}

// TestSubmitBodyCapIsExact: MaxBodyBytes caps the whole body, not the
// JSON value at its start. A body of exactly the cap is accepted; one
// byte more is a 413, although the JSON ends long before it.
func TestSubmitBodyCapIsExact(t *testing.T) {
	const limit = 4096
	s := stubServer(t, Options{Workers: 1, MaxBodyBytes: limit})
	body := jobBody(t, "acme", 0)
	padded := func(n int) []byte {
		return append(slices.Clip(body), bytes.Repeat([]byte(" "), n-len(body))...)
	}
	if code, _ := submitDone(t, s, padded(limit)); code/100 != 2 {
		t.Fatalf("body of %d bytes = %d, want accepted", limit, code)
	}
	for _, n := range []int{limit + 1, len(body) + 1<<20} {
		code, resp := do(t, s, "POST", "/v1/jobs", padded(n))
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(resp), "exceeds 4096 bytes") {
			t.Errorf("body of %d bytes = %d %s, want 413", n, code, resp)
		}
	}
}

// TestResultBodyUnchanged: GET /result writes the stored encoding of a
// result, which is byte for byte what writeJSON writes for the result
// with the job's cache_hit: for a run's own job, a cache answer, an index
// answer and a budgeted job no cache holds.
func TestResultBodyUnchanged(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	// The real flow, and a name the encoder escapes.
	req := JobRequest{
		Tenant:   "acme",
		Circuit:  CircuitSpec{Bench: testBench, Name: "t<i&n>y"},
		TPLevels: []float64{0, 2},
		Flow:     FlowConfig{SkipATPG: true},
	}
	body := mustJSON(t, req)
	indented, err := json.MarshalIndent(req, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	budgeted := req
	budgeted.Flow.ATPGBudgetMS = 60000

	type job struct {
		name     string
		code     int
		st       JobStatus
		cacheHit bool
	}
	var jobs []job
	submit := func(name string, body []byte, wantCode int, cacheHit bool) {
		code, st := submitDone(t, s, body)
		if code != wantCode {
			t.Fatalf("%s: submit = %d, want %d", name, code, wantCode)
		}
		jobs = append(jobs, job{name, code, st, cacheHit})
	}
	submit("run's own job", body, http.StatusAccepted, false)
	submit("cache answer", indented, http.StatusOK, true)
	if !aliased(t, s, body) {
		t.Fatal("the run's body is not aliased")
	}
	submit("index answer", body, http.StatusOK, true)
	submit("budgeted job", mustJSON(t, budgeted), http.StatusAccepted, false)

	for _, j := range jobs {
		s.mu.Lock()
		out := *s.jobs[j.st.ID].result.value()
		s.mu.Unlock()
		out.CacheHit = j.cacheHit
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, &out)

		got := httptest.NewRecorder()
		s.ServeHTTP(got, httptest.NewRequest("GET", "/v1/jobs/"+j.st.ID+"/result", nil))
		if got.Code != http.StatusOK || got.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: GET /result = %d %q", j.name, got.Code, got.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: GET /result body\n%s\nwant\n%s", j.name, got.Body, want.Body)
		}
	}
	if s.FlowRuns() != 2 {
		t.Fatalf("%d flows ran, want the first job's and the budgeted one's", s.FlowRuns())
	}
}
