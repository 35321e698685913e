package service

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
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
	for _, path := range []string{"/v1/runs", "/v1/runs/stats", "/v1/runs/r1", "/v1/runs/r1/trace", "/v1/runs/r1/diff", "/v1/runs/r1/profile"} {
		if code, _ := do(t, s, "GET", path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s on in-memory server = %d, want 404", path, code)
		}
	}
}

// TestHistoryArchiveAndQueryAPI: a retired run lands in the archive
// with an intact gzip trace, a rollup, and a no-baseline verdict; the
// /v1/runs surface filters and serves it.
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
	if ma.CircuitHash == "" || ma.ConfigHash == "" || ma.BaselineKey == "" {
		t.Fatalf("meta a missing hashes: %+v", ma)
	}
	if ma.Rollup == nil || len(ma.Rollup.Cells) == 0 {
		t.Fatal("meta a has no rollup")
	}
	if ma.Diff == nil || ma.Diff.Verdict != "no-baseline" {
		t.Fatalf("first run of its key should be no-baseline, got %+v", ma.Diff)
	}
	// Same circuit and config → same hashes; different level lists share
	// the baseline key by design.
	if mb.CircuitHash != ma.CircuitHash || mb.BaselineKey != ma.BaselineKey {
		t.Fatalf("baseline keys diverged: %q vs %q", ma.BaselineKey, mb.BaselineKey)
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
		{"?baseline=" + ma.BaselineKey, []string{mb.RunID, ma.RunID}},
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
			if got[i].Rollup != nil {
				t.Fatalf("list view must omit rollups")
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

	// /v1/runs/stats: retention counters plus the one baseline key.
	code, resp := do(t, s, "GET", "/v1/runs/stats?baseline="+ma.BaselineKey, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/runs/stats = %d", code)
	}
	var rs struct {
		Runs      int                     `json:"runs"`
		Bytes     int64                   `json:"bytes"`
		Baselines []trachive.BaselineInfo `json:"baselines"`
		Rollup    []trachive.RollupCell   `json:"rollup"`
	}
	if err := json.Unmarshal(resp, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Runs != 2 || rs.Bytes == 0 || len(rs.Baselines) != 1 || len(rs.Rollup) == 0 {
		t.Fatalf("runs stats: %+v", rs)
	}

	// Service stats carry the archive counters.
	if st := s.Stats(); st.RunsArchived != 2 || st.HistoryRuns != 2 || st.HistoryBytes == 0 || st.ArchiveErrors != 0 {
		t.Fatalf("service stats: %+v", st)
	}

	shutdown(t, s)
	waitGoroutines(t, before)
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

// sentinelOpts builds the server options the sentinel tests share: a
// sink that sleeps as the place stage opens (delay in nanoseconds,
// swapped atomically between runs) and a floor that only the delayed
// stage clears, so scheduler jitter on the microsecond stages can
// never gate.
func sentinelOpts(delay *atomic.Int64, prom *telemetry.PromSink) Options {
	return Options{
		Workers:        1,
		Metrics:        prom,
		SentinelMinDur: 10 * time.Millisecond,
		ExtraSinks:     []telemetry.Sink{atPlaceStart(func() { time.Sleep(time.Duration(delay.Load())) })},
	}
}

// TestSentinelQuietOnIdenticalRerun: the same job run twice at the same
// speed diffs clean — the verdict is no-regression and the regression
// counter stays at a scrapeable zero.
func TestSentinelQuietOnIdenticalRerun(t *testing.T) {
	var delay atomic.Int64
	delay.Store(int64(50 * time.Millisecond))
	prom := telemetry.NewPromSink("tpid")
	s := openDurable(t, t.TempDir(), sentinelOpts(&delay, prom), nil)
	defer shutdown(t, s)

	_, st1 := postJob(t, s, budgetBody(t, "smoke", 1))
	waitState(t, s, st1.ID, StateDone)
	waitArchived(t, s, st1.RunID)

	_, st2 := postJob(t, s, budgetBody(t, "smoke", 1))
	waitState(t, s, st2.ID, StateDone)
	if st2.RunID == st1.RunID || st2.CacheHit {
		t.Fatalf("budgeted rerun did not execute a fresh flow: %+v", st2)
	}
	m2 := waitArchived(t, s, st2.RunID)
	if m2.Diff == nil || m2.Diff.Verdict != "no-regression" || m2.Diff.Against != st1.RunID {
		t.Fatalf("rerun verdict: %+v", m2.Diff)
	}
	if n := s.Stats().Regressions; n != 0 {
		t.Fatalf("regressions = %d on identical rerun", n)
	}

	// The diff endpoint agrees, both implicitly and explicitly.
	for _, q := range []string{"", "?against=" + st1.RunID} {
		code, resp := do(t, s, "GET", "/v1/runs/"+st2.RunID+"/diff"+q, nil)
		if code != http.StatusOK {
			t.Fatalf("GET diff%s = %d: %s", q, code, resp)
		}
		var d struct {
			Verdict string `json:"verdict"`
			Against string `json:"against"`
			Text    string `json:"text"`
		}
		if err := json.Unmarshal(resp, &d); err != nil {
			t.Fatal(err)
		}
		if d.Verdict != "no-regression" || d.Against != st1.RunID || !strings.Contains(d.Text, "no regressions") {
			t.Fatalf("diff%s: %+v", q, d)
		}
	}

	// tpid_service_regression_total renders at zero before any
	// regression ever fires — the scrape CI's daemon-smoke greps for.
	rec := httptest.NewRecorder()
	prom.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	expo := rec.Body.String()
	if !strings.Contains(expo, "tpid_service_regression_total") {
		t.Fatal("regression counter family missing from exposition")
	}
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "tpid_service_regression_total{") && !strings.HasSuffix(line, " 0") {
			t.Fatalf("nonzero regression series on clean rerun: %s", line)
		}
	}
	if !strings.Contains(expo, "tpid_service_crossrun_p50_ns") || !strings.Contains(expo, `baseline="`) {
		t.Fatal("cross-run rollup gauges missing from exposition")
	}
}

// TestSentinelFiresOnInjectedSlowdown: re-running the same job with the
// place stage slowed 10× trips the sentinel — the archived verdict, the
// service counter, and the /metrics series all name the stage and level.
func TestSentinelFiresOnInjectedSlowdown(t *testing.T) {
	var delay atomic.Int64
	delay.Store(int64(50 * time.Millisecond))
	prom := telemetry.NewPromSink("tpid")
	s := openDurable(t, t.TempDir(), sentinelOpts(&delay, prom), nil)
	defer shutdown(t, s)

	_, st1 := postJob(t, s, budgetBody(t, "smoke", 1))
	waitState(t, s, st1.ID, StateDone)
	waitArchived(t, s, st1.RunID)

	delay.Store(int64(500 * time.Millisecond))
	_, st2 := postJob(t, s, budgetBody(t, "smoke", 1))
	waitState(t, s, st2.ID, StateDone)
	m2 := waitArchived(t, s, st2.RunID)

	if m2.Diff == nil || m2.Diff.Verdict != "regression" || m2.Diff.Against != st1.RunID {
		t.Fatalf("slowdown verdict: %+v", m2.Diff)
	}
	var sawPlace bool
	for _, row := range m2.Diff.Regressions {
		if row.Stage == "place" && row.TP == 1 {
			sawPlace = true
		}
	}
	if !sawPlace {
		t.Fatalf("regressions do not name place @ tp 1: %+v", m2.Diff.Regressions)
	}
	if n := s.Stats().Regressions; n == 0 {
		t.Fatal("regression counter did not move")
	}

	rec := httptest.NewRecorder()
	prom.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	expo := rec.Body.String()
	var sawSeries bool
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "tpid_service_regression_total{") &&
			strings.Contains(line, `stage="place"`) && strings.Contains(line, `level="1"`) &&
			!strings.HasSuffix(line, " 0") {
			sawSeries = true
		}
	}
	if !sawSeries {
		t.Fatalf("no stage/level-labeled regression series:\n%s", expo)
	}
	if !strings.Contains(expo, "tpid_service_regression_last") {
		t.Fatal("regression_last gauge missing")
	}
}

// TestHistorySurvivesCrashRestart: archived runs outlive a SIGKILL
// (journal-backed index, no clean Close), and a rerun after restart
// diffs against the pre-crash baseline.
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
	if m1b.TraceBytes != m1.TraceBytes || m1b.BaselineKey != m1.BaselineKey {
		t.Fatalf("archived run changed across restart: %+v vs %+v", m1, m1b)
	}

	// The pre-crash run serves as baseline for a post-restart rerun.
	_, st2 := postJob(t, s2, budgetBody(t, "smoke", 1))
	waitState(t, s2, st2.ID, StateDone)
	m2 := waitArchived(t, s2, st2.RunID)
	if m2.Diff == nil || m2.Diff.Against != st1.RunID || m2.Diff.Verdict != "no-regression" {
		t.Fatalf("post-restart diff: %+v", m2.Diff)
	}
}

// TestHistoryListsRunsArchivedUnderOldKey: an index entry written while
// runs still carried sweep_mode and a "<circuit>-<config>-full" baseline
// key keeps listing and filtering under that key, and is no longer the
// baseline of a rerun (it ages out under retention).
func TestHistoryListsRunsArchivedUnderOldKey(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Options{Workers: 1}, nil)
	_, st1 := postJob(t, s1, budgetBody(t, "smoke", 1))
	waitState(t, s1, st1.ID, StateDone)
	m1 := waitArchived(t, s1, st1.RunID)
	shutdown(t, s1)

	// Re-index the run the way the old build wrote it.
	var old map[string]any
	raw, err := json.Marshal(m1)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	oldKey := m1.BaselineKey + "-full"
	old["sweep_mode"], old["baseline_key"] = "full", oldKey
	if raw, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	idx, _, err := journal.Open(filepath.Join(dir, "runs", "index"), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Append(journal.Type(10), raw); err != nil { // trachive's "archived" record
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir, Options{Workers: 1}, nil)
	defer shutdown(t, s2)
	for _, q := range []string{"", "?baseline=" + oldKey} {
		if runs := listRuns(t, s2, q); len(runs) != 1 || runs[0].RunID != st1.RunID || runs[0].BaselineKey != oldKey {
			t.Fatalf("GET /v1/runs%s = %+v, want the old run under %q", q, runs, oldKey)
		}
	}
	_, st2 := postJob(t, s2, budgetBody(t, "smoke", 1))
	waitState(t, s2, st2.ID, StateDone)
	m2 := waitArchived(t, s2, st2.RunID)
	if m2.BaselineKey != m1.BaselineKey || m2.Diff == nil || m2.Diff.Verdict != "no-baseline" {
		t.Fatalf("rerun key %q diff %+v, want key %q with no baseline", m2.BaselineKey, m2.Diff, m1.BaselineKey)
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
