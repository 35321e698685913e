package tpilayout

// End-to-end test of the run-history archive: the same job is executed
// twice against a live durable daemon with a simulated SIGKILL and
// restart in between. Both runs must survive in the archive with intact
// gzip traces, and comparing the two downloaded traces the way
// `tracestat -normalize -min-dur 100ms BASE CUR` does must report zero
// regressions.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tpilayout/internal/service"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/tracecmp"
	"tpilayout/internal/trachive"
)

// e2eBench is a minimal netlist; the ATPG budget makes the submission
// non-cacheable, so the identical resubmission executes a real flow
// (a cache answer would archive nothing).
const e2eBench = `INPUT(a)
INPUT(b)
OUTPUT(y)
d1 = DFF(a) # domain=clk
y = NAND(d1, b)
`

func historyJob(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(service.JobRequest{
		Tenant:   "e2e",
		Circuit:  service.CircuitSpec{Bench: e2eBench, Name: "tiny"},
		TPLevels: []float64{1},
		Flow:     service.FlowConfig{SkipATPG: true, ATPGBudgetMS: 600000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// runJobToArchive submits the job, waits for it to finish, then waits
// for the retirement hook to land it in the archive.
func runJobToArchive(t *testing.T, base string, body []byte) trachive.Meta {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%+v)", resp.StatusCode, st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		got := getJSON[service.JobStatus](t, base+"/v1/jobs/"+st.ID)
		if got.State == service.StateDone {
			st = got
			break
		}
		if got.State == service.StateFailed || got.State == service.StateCanceled {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.CacheHit || st.RunID == "" {
		t.Fatalf("budgeted job must run a fresh flow: %+v", st)
	}
	return waitMeta(t, base, st.RunID)
}

func waitMeta(t *testing.T, base, runID string) trachive.Meta {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/runs/" + runID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var m trachive.Meta
			err := json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never archived", runID)
	return trachive.Meta{}
}

// checkArchivedTrace fetches the run's archived trace, verifies it is an
// intact gzip NDJSON span tree, and returns the downloaded bytes.
func checkArchivedTrace(t *testing.T, base, runID string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + runID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace(%s) = %d", runID, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace(%s) is not gzip: %v", runID, err)
	}
	tr, err := telemetry.ParseTrace(gz)
	if err != nil {
		t.Fatalf("trace(%s) does not parse: %v", runID, err)
	}
	if !tr.Balanced() || len(tr.Spans) == 0 {
		t.Fatalf("trace(%s): balanced=%v spans=%d", runID, tr.Balanced(), len(tr.Spans))
	}
	return raw
}

func TestHistoryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	open := func() (*service.Server, *httptest.Server) {
		srv, err := service.Open(service.Options{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !srv.Stats().Ready {
			if time.Now().After(deadline) {
				t.Fatal("daemon never became ready")
			}
			time.Sleep(5 * time.Millisecond)
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/", srv)
		return srv, httptest.NewServer(mux)
	}

	// Incarnation one: run the job, see it archived, then die without
	// any orderly shutdown — the archive index must not need one.
	srv1, ts1 := open()
	body := historyJob(t)
	m1 := runJobToArchive(t, ts1.URL, body)
	if m1.State != "done" || m1.CircuitHash == "" {
		t.Fatalf("first run meta: %+v", m1)
	}
	checkArchivedTrace(t, ts1.URL, m1.RunID)
	srv1.Kill() // simulated SIGKILL: no archive close, no compaction
	ts1.Close()

	// Incarnation two: the pre-crash run is still there, trace intact,
	// and an identical rerun's trace compares clean against it.
	srv2, ts2 := open()
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	recovered := waitMeta(t, ts2.URL, m1.RunID)
	if recovered.TraceBytes != m1.TraceBytes || recovered.Seq != m1.Seq {
		t.Fatalf("run mutated across crash: %+v vs %+v", m1, recovered)
	}
	trace1 := checkArchivedTrace(t, ts2.URL, m1.RunID)

	m2 := runJobToArchive(t, ts2.URL, body)
	if m2.RunID == m1.RunID {
		t.Fatal("rerun reused the first run_id")
	}
	if m2.CircuitHash != m1.CircuitHash || m2.ConfigHash != m1.ConfigHash {
		t.Fatalf("rerun hashes diverged: %+v vs %+v", m1, m2)
	}
	trace2 := checkArchivedTrace(t, ts2.URL, m2.RunID)

	// The two downloaded traces compare clean under tracestat's CI
	// options (make daemon-smoke): normalized shares, a 100 ms noise floor.
	side1, err := tracecmp.LoadTrace(bytes.NewReader(trace1))
	if err != nil {
		t.Fatal(err)
	}
	side2, err := tracecmp.LoadTrace(bytes.NewReader(trace2))
	if err != nil {
		t.Fatal(err)
	}
	rep := tracecmp.Diff(side1, side2, tracecmp.Options{
		MaxRegressPct: 25, HardRegressPct: 150, MinDur: 100 * time.Millisecond, Normalize: true,
	})
	if len(rep.Rows) == 0 || len(rep.Regressions) != 0 {
		t.Fatalf("trace diff: %d rows, regressions %+v", len(rep.Rows), rep.Regressions)
	}

	// Both incarnations' runs are in the archive, newest first.
	runs := getJSON[struct {
		Runs []trachive.Meta `json:"runs"`
	}](t, ts2.URL+"/v1/runs?circuit="+m1.CircuitHash)
	if len(runs.Runs) != 2 || runs.Runs[0].RunID != m2.RunID || runs.Runs[1].RunID != m1.RunID {
		t.Fatalf("archived runs: %+v", runs.Runs)
	}
}
