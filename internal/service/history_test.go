package service

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/trachive"
)

// budgetBody builds a submission that is non-cacheable (a generous ATPG
// budget makes a job's runtime environment-dependent, so it bypasses
// the result cache and singleflight): the knob history tests use to
// force identical resubmissions to execute real flows instead of being
// answered from the cache.
func budgetBody(t *testing.T, tenant string, levels ...float64) []byte {
	t.Helper()
	b, err := json.Marshal(JobRequest{
		Tenant:   tenant,
		Circuit:  CircuitSpec{Bench: testBench, Name: "tiny"},
		TPLevels: levels,
		Flow:     FlowConfig{SkipATPG: true, ATPGBudgetMS: 600000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitArchived polls GET /v1/runs/{id} until the retirement hook has
// archived the run (archiving happens just after jobs turn terminal).
func waitArchived(t *testing.T, s *Server, runID string) trachive.Meta {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, resp := do(t, s, "GET", "/v1/runs/"+runID, nil)
		if code == http.StatusOK {
			var m trachive.Meta
			if err := json.Unmarshal(resp, &m); err != nil {
				t.Fatalf("decoding run meta: %v\n%s", err, resp)
			}
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never archived", runID)
	return trachive.Meta{}
}

func listRuns(t *testing.T, s *Server, query string) []trachive.Meta {
	t.Helper()
	code, resp := do(t, s, "GET", "/v1/runs"+query, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/runs%s = %d: %s", query, code, resp)
	}
	var out struct {
		Runs []trachive.Meta `json:"runs"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		t.Fatal(err)
	}
	return out.Runs
}

func TestHistoryDisabledWithoutDataDir(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	for _, path := range []string{"/v1/runs", "/v1/runs/stats", "/v1/runs/r1", "/v1/runs/r1/trace", "/v1/runs/r1/profile"} {
		if code, _ := do(t, s, "GET", path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s on in-memory server = %d, want 404", path, code)
		}
	}
}

// TestHistoryArchiveAndQueryAPI: a retired run lands in the archive
// with an intact gzip trace; the /v1/runs surface filters and serves it.
func TestHistoryArchiveAndQueryAPI(t *testing.T) {
	before := runtime.NumGoroutine()
	s := openDurable(t, t.TempDir(), Options{Workers: 2}, nil)

	// Archive order is Seq order, so wait for A's retirement hook to
	// land before submitting B — otherwise B can archive first and the
	// newest-first expectations below flip.
	_, stA := postJob(t, s, jobBody(t, "alice", 1))
	waitState(t, s, stA.ID, StateDone)
	ma := waitArchived(t, s, stA.RunID)
	_, stB := postJob(t, s, jobBody(t, "bob", 1, 2))
	waitState(t, s, stB.ID, StateDone)
	mb := waitArchived(t, s, stB.RunID)
	if ma.State != "done" || ma.Tenant != "alice" || ma.Circuit != "tiny" {
		t.Fatalf("meta a: %+v", ma)
	}
	if ma.CircuitHash == "" || ma.ConfigHash == "" {
		t.Fatalf("meta a missing hashes: %+v", ma)
	}
	// Same circuit and config → same hashes; the level list is in
	// neither.
	if mb.CircuitHash != ma.CircuitHash || mb.ConfigHash != ma.ConfigHash {
		t.Fatalf("hashes diverged: %+v vs %+v", ma, mb)
	}
	if len(mb.JobIDs) != 1 || mb.JobIDs[0] != stB.ID {
		t.Fatalf("job ids: %v", mb.JobIDs)
	}

	// The filter matrix.
	for _, tc := range []struct {
		query string
		want  []string // newest first
	}{
		{"", []string{mb.RunID, ma.RunID}},
		{"?tenant=alice", []string{ma.RunID}},
		{"?state=done", []string{mb.RunID, ma.RunID}},
		{"?state=failed", nil},
		{"?circuit=" + ma.CircuitHash[:8], []string{mb.RunID, ma.RunID}},
		{"?circuit=ffffffff", nil},
		{"?config=" + ma.ConfigHash[:8], []string{mb.RunID, ma.RunID}},
		{"?limit=1", []string{mb.RunID}},
		{"?tenant=alice&state=done", []string{ma.RunID}},
	} {
		got := listRuns(t, s, tc.query)
		if len(got) != len(tc.want) {
			t.Fatalf("GET /v1/runs%s: %d runs, want %d", tc.query, len(got), len(tc.want))
		}
		for i := range got {
			if got[i].RunID != tc.want[i] {
				t.Fatalf("GET /v1/runs%s[%d] = %s, want %s", tc.query, i, got[i].RunID, tc.want[i])
			}
		}
	}
	if code, _ := do(t, s, "GET", "/v1/runs?since=yesterday", nil); code != http.StatusBadRequest {
		t.Errorf("bad since = %d, want 400", code)
	}
	if code, _ := do(t, s, "GET", "/v1/runs?limit=-1", nil); code != http.StatusBadRequest {
		t.Errorf("bad limit = %d, want 400", code)
	}

	// The archived trace round-trips: gzip NDJSON, balanced, and it
	// still carries the run's correlation attrs.
	code, body := do(t, s, "GET", "/v1/runs/"+ma.RunID+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d", code)
	}
	gz, err := gzip.NewReader(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("trace is not gzip: %v", err)
	}
	tr, err := telemetry.ParseTrace(gz)
	if err != nil {
		t.Fatalf("archived trace does not parse: %v", err)
	}
	if !tr.Balanced() || len(tr.Spans) == 0 {
		t.Fatalf("archived trace: balanced=%v spans=%d", tr.Balanced(), len(tr.Spans))
	}
	var sawRunID bool
	for _, e := range tr.Events {
		if e.Attrs["run_id"] == ma.RunID {
			sawRunID = true
			break
		}
	}
	if !sawRunID {
		t.Fatal("archived trace lost its run_id attrs")
	}

	// /v1/runs/stats: retention counters.
	code, resp := do(t, s, "GET", "/v1/runs/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/runs/stats = %d", code)
	}
	var rs trachive.Stats
	if err := json.Unmarshal(resp, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Runs != 2 || rs.Bytes == 0 {
		t.Fatalf("runs stats: %+v", rs)
	}

	// Service stats carry the archive counters.
	if st := s.Stats(); st.RunsArchived != 2 || st.HistoryRuns != 2 || st.HistoryBytes == 0 || st.ArchiveErrors != 0 {
		t.Fatalf("service stats: %+v", st)
	}

	shutdown(t, s)
	waitGoroutines(t, before)
}

// TestHistoryArchiveWriteFailure: a run whose archive write fails still
// answers its jobs. With <data-dir>/runs replaced by a regular file every
// archive write fails with ENOTDIR; the job reads done with its result,
// archive_errors reads 1 on /v1/stats and /metrics, /v1/runs does not
// list the run, its job streams the run's full trace from memory, and
// once the directory is back a reopen succeeds.
func TestHistoryArchiveWriteFailure(t *testing.T) {
	dir := t.TempDir()
	prom := telemetry.NewPromSink("tpid")
	s := openDurable(t, dir, Options{Workers: 1, Sinks: []telemetry.Sink{prom}}, nil)
	runs := filepath.Join(dir, "runs")
	if err := os.Rename(runs, runs+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runs, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	_, st := postJob(t, s, jobBody(t, "acme", 1))
	waitState(t, s, st.ID, StateDone)
	if code, res := getResult(t, s, st.ID); code != http.StatusOK || res == nil || !res.Complete {
		t.Fatalf("result after a failed archive write = %d, %+v", code, res)
	}
	waitFor(t, func() bool { return s.Stats().ArchiveErrors > 0 })
	code, resp := do(t, s, "GET", "/v1/stats", nil)
	var stats Stats
	if code != http.StatusOK || json.Unmarshal(resp, &stats) != nil || stats.ArchiveErrors != 1 || stats.RunsArchived != 0 {
		t.Fatalf("GET /v1/stats = %d: %s", code, resp)
	}
	rec := httptest.NewRecorder()
	prom.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := regexp.MustCompile(`(?m)^tpid_service_archive_errors_total\{[^}]*\} 1$`); !want.MatchString(rec.Body.String()) {
		t.Fatalf("/metrics has no archive_errors of 1:\n%s", rec.Body.String())
	}
	if runs := listRuns(t, s, ""); len(runs) != 0 {
		t.Fatalf("GET /v1/runs lists %+v after a failed archive write", runs)
	}
	if code, _ := do(t, s, "GET", "/v1/runs/"+st.RunID, nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/runs/%s = %d, want 404", st.RunID, code)
	}
	// With no archived copy, the run's events stay in memory, and the
	// job streams its full trace from there.
	s.mu.Lock()
	events := s.jobs[st.ID].record.retained
	s.mu.Unlock()
	if events == nil {
		t.Fatal("the events of a run whose archive write failed left memory")
	}
	_, body := do(t, s, "GET", "/v1/jobs/"+st.ID+"/events", nil)
	stream, _, _ := strings.Cut(string(body), "event: done\n")
	var ndjson strings.Builder
	for _, line := range strings.Split(stream, "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			ndjson.WriteString(data + "\n")
		}
	}
	tr, err := telemetry.ParseTrace(strings.NewReader(ndjson.String()))
	if err != nil {
		t.Fatalf("the job's stream does not parse as a trace: %v\n%s", err, body)
	}
	if !tr.Balanced() || len(tr.Events) != events.len() || len(tr.Spans) == 0 {
		t.Fatalf("the job streams %d of its run's %d events:\n%s", len(tr.Events), events.len(), body)
	}
	shutdown(t, s)

	if err := os.Remove(runs); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(runs+".aside", runs); err != nil {
		t.Fatal(err)
	}
	s2 := openDurable(t, dir, Options{Workers: 1}, nil)
	defer shutdown(t, s2)
	if got := getStatus(t, s2, st.ID); got.State != StateDone {
		t.Fatalf("job after the reopen: %+v", got)
	}
	_, st2 := postJob(t, s2, budgetBody(t, "acme", 1))
	waitState(t, s2, st2.ID, StateDone)
	waitArchived(t, s2, st2.RunID)
}

// atPlaceStart returns a sink that calls f when a place span opens. A
// sink runs on the flow's goroutine between the span's start stamp and
// the stage's first instruction, so what f spends is inside the span.
func atPlaceStart(f func()) telemetry.Sink {
	return telemetry.FuncSink(func(e telemetry.Event) {
		if e.Type == telemetry.EventSpanStart && e.Stage == flow.StagePlace {
			f()
		}
	})
}

// TestHistorySurvivesCrashRestart: archived runs outlive a SIGKILL
// (journal-backed index, no clean Close), and a rerun after restart
// archives after them.
func TestHistorySurvivesCrashRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Options{Workers: 1}, nil)
	_, st1 := postJob(t, s1, budgetBody(t, "smoke", 1))
	waitState(t, s1, st1.ID, StateDone)
	m1 := waitArchived(t, s1, st1.RunID)
	s1.Kill() // crash: no archive Close, no journal compaction

	s2 := openDurable(t, dir, Options{Workers: 1}, nil)
	defer shutdown(t, s2)
	m1b := waitArchived(t, s2, st1.RunID)
	if m1b.TraceBytes != m1.TraceBytes || m1b.Seq != m1.Seq || m1b.CircuitHash != m1.CircuitHash {
		t.Fatalf("archived run changed across restart: %+v vs %+v", m1, m1b)
	}

	// A post-restart rerun archives beside the pre-crash run, newer.
	_, st2 := postJob(t, s2, budgetBody(t, "smoke", 1))
	waitState(t, s2, st2.ID, StateDone)
	m2 := waitArchived(t, s2, st2.RunID)
	if m2.Seq <= m1.Seq || m2.ConfigHash != m1.ConfigHash {
		t.Fatalf("post-restart run: %+v, pre-crash %+v", m2, m1)
	}
	if runs := listRuns(t, s2, ""); len(runs) != 2 || runs[0].RunID != st2.RunID || runs[1].RunID != st1.RunID {
		t.Fatalf("runs after restart: %+v", runs)
	}
}

// TestHistoryOpensParentFormatIndex: a data dir whose archive index was
// written by a build that still compared runs opens, lists and serves its
// runs. Those records carry "baseline_key", "rollup" and "diff" fields
// (one key in the older "<circuit>-<config>-full" form, beside a
// sweep_mode field), in both the snapshot and an appended record;
// decoding must ignore them, so this fails if Meta ever decodes strictly.
func TestHistoryOpensParentFormatIndex(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Options{Workers: 1}, nil)
	var metas []trachive.Meta
	for range 2 {
		_, st := postJob(t, s1, budgetBody(t, "smoke", 1))
		waitState(t, s1, st.ID, StateDone)
		metas = append(metas, waitArchived(t, s1, st.RunID))
	}
	shutdown(t, s1)

	// Rewrite the index from scratch, the way the parent build wrote it.
	key := metas[0].CircuitHash[:12] + "-" + metas[0].ConfigHash[:12]
	parent := func(m trachive.Meta, extra string) []byte {
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return append(raw[:len(raw)-1], ","+extra+"}"...)
	}
	rollup := `"rollup":{"cells":[{"stage":"run","tp":1,"dur_ns":2.5e7,"cpu_ns":2e7,"n":1},` +
		`{"stage":"place","tp":1,"dur_ns":1e7,"n":1,"counters":{"place.cuts":7}}],"run_totals":[{"tp":1,"dur_ns":2.5e7}]}`
	old := parent(metas[0], `"sweep_mode":"full","baseline_key":"`+key+`-full",`+rollup+`,"diff":{"verdict":"no-baseline"}`)
	cur := parent(metas[1], `"baseline_key":"`+key+`",`+rollup+`,"diff":{"against":"`+metas[0].RunID+
		`","verdict":"regression","cells":2,"regressions":[{"stage":"place","tp":1,"base_ns":40,"cur_ns":60,"delta_pct":null,"regressed":true}]}`)
	idxDir := filepath.Join(dir, "runs", "index")
	if err := os.RemoveAll(idxDir); err != nil {
		t.Fatal(err)
	}
	idx, _, err := journal.Open(idxDir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := `{"seq":` + strconv.FormatUint(metas[0].Seq, 10) + `,"runs":[` + string(old) + `]}`
	if err := idx.Compact([]byte(snap)); err != nil {
		t.Fatal(err)
	}
	if err := idx.Append(journal.Type(10), cur); err != nil { // trachive's "archived" record
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir, Options{Workers: 1}, nil)
	defer shutdown(t, s2)
	for _, q := range []string{
		"?circuit=" + metas[0].CircuitHash[:8],
		"?config=" + metas[0].ConfigHash[:8],
		"?tenant=smoke",
	} {
		if runs := listRuns(t, s2, q); len(runs) != 2 || runs[0].RunID != metas[1].RunID || runs[1].RunID != metas[0].RunID {
			t.Fatalf("GET /v1/runs%s = %+v, want both parent-format runs", q, runs)
		}
	}
	for _, m := range metas {
		if code, body := do(t, s2, "GET", "/v1/runs/"+m.RunID, nil); code != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s = %d: %s", m.RunID, code, body)
		}
		code, body := do(t, s2, "GET", "/v1/runs/"+m.RunID+"/trace", nil)
		if code != http.StatusOK || int64(len(body)) != m.TraceBytes {
			t.Fatalf("GET trace %s = %d, %d bytes, want %d", m.RunID, code, len(body), m.TraceBytes)
		}
	}

	// A new run archives beside them.
	_, st := postJob(t, s2, budgetBody(t, "smoke", 1))
	waitState(t, s2, st.ID, StateDone)
	m3 := waitArchived(t, s2, st.RunID)
	if m3.Seq <= metas[1].Seq {
		t.Fatalf("new run seq %d, parent-format runs end at %d", m3.Seq, metas[1].Seq)
	}
	if runs := listRuns(t, s2, "?tenant=smoke"); len(runs) != 3 || runs[0].RunID != st.RunID {
		t.Fatalf("runs after a new archive: %+v", runs)
	}
}

// TestRunProfileCapture: with ProfileRuns on, a retiring run archives a
// CPU profile whose sample labels name the run and its stages.
func TestRunProfileCapture(t *testing.T) {
	opt := Options{
		Workers:     1,
		ProfileRuns: true,
		// Burn real CPU inside one run so the 100 Hz profiler is
		// guaranteed samples that carry the run's pprof labels.
		ExtraSinks: []telemetry.Sink{atPlaceStart(func() {
			for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
			}
		})},
	}
	s := openDurable(t, t.TempDir(), opt, nil)
	defer shutdown(t, s)

	_, st := postJob(t, s, budgetBody(t, "smoke", 1))
	waitState(t, s, st.ID, StateDone)
	m := waitArchived(t, s, st.RunID)
	if m.ProfileBytes == 0 {
		t.Fatal("no profile archived")
	}
	if m.CPUMS == 0 {
		t.Fatal("a run that burned CPU archived cpu_ms 0")
	}

	code, body := do(t, s, "GET", "/v1/runs/"+st.RunID+"/profile", nil)
	if code != http.StatusOK {
		t.Fatalf("GET profile = %d", code)
	}
	if int64(len(body)) != m.ProfileBytes {
		t.Fatalf("profile bytes: served %d, meta %d", len(body), m.ProfileBytes)
	}
	// pprof output is gzipped protobuf; the label keys and values live
	// in its string table, so a substring scan of the decompressed
	// bytes is a dependency-free label check.
	gz, err := gzip.NewReader(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	var raw strings.Builder
	if _, err := fmt.Fprint(&raw, readAll(t, gz)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run_id", st.RunID, "stage", "tp_level"} {
		if !strings.Contains(raw.String(), want) {
			t.Errorf("profile lacks label string %q", want)
		}
	}
}

func readAll(t *testing.T, r *gzip.Reader) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
