package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
)

// dirNames lists the entries of dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// walLeft lists the journal files a parent build's journal left in dir.
func walLeft(dir string) []string {
	var out []string
	for _, pattern := range walFiles {
		names, _ := filepath.Glob(filepath.Join(dir, pattern))
		out = append(out, names...)
	}
	return out
}

// answers is every GET a client can make of the given jobs: the status
// and result bodies, by path.
func answers(t *testing.T, s *Server, ids ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range ids {
		for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result"} {
			code, body := do(t, s, "GET", path, nil)
			out[path] = fmt.Sprintf("%d %s", code, body)
		}
	}
	return out
}

// TestParentDataDir: a data dir a parent build left — a journal whose
// oldest records a snapshot replaced, two segments after it, and the
// canceled record builds before them wrote for a DELETE — opens with the
// answers that build gave from its fold: retired jobs keep state, error,
// run id and result (a done one answers resubmissions from the cache),
// pending jobs re-run under their filed run id, resuming the levels the
// journal checkpointed, a twin coalesces onto its owner's run, and a
// pending job whose twin retired done is answered from the cache. The
// journal is gone afterwards, and a second Open answers every GET of
// every job with the same bytes: the jobs retired in the first life keep
// their start time, resumed levels, coalescing and cache hit.
func TestParentDataDir(t *testing.T) {
	dir := t.TempDir()
	comp := func(levels ...float64) *compiled {
		var req JobRequest
		if err := json.Unmarshal(jobBody(t, "acme", levels...), &req); err != nil {
			t.Fatal(err)
		}
		c, err := compileRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pc := comp(1, 2, 3)
	accepted := func(id, runID string, minute int, levels ...float64) map[string]any {
		return map[string]any{
			"job_id": id, "run_id": runID, "tenant": "acme", "name": "tiny", "bench": pc.bench,
			"tp_levels": levels, "flow": map[string]any{"experiment": "bench", "skip_atpg": true},
			"created": fmt.Sprintf("2026-09-01T10:%02d:00Z", minute),
		}
	}
	retired := func(acc map[string]any, state State, errMsg, key string, res *JobResult, minute int) map[string]any {
		return map[string]any{
			"job_id": acc["job_id"], "run_id": acc["run_id"], "tenant": "acme", "name": "tiny",
			"tp_levels": acc["tp_levels"], "state": state, "error": errMsg, "cache_key": key,
			"cacheable": true, "result": res, "created": acc["created"],
			"finished": fmt.Sprintf("2026-09-01T10:%02d:30Z", minute),
		}
	}
	level := func(pct float64) map[string]any {
		return map[string]any{"key": levelKey(pc.baseKey, pct), "tp_percent": pct, "metrics": stubMetrics(pct), "run_id": "run-p1", "job_id": "p1"}
	}
	r1, f1, p1 := accepted("r1", "run-r1", 1, 4), accepted("f1", "run-f1", 2, 9), accepted("p1", "run-p1", 3, 1, 2, 3)
	r1Result := &JobResult{
		Circuit: "tiny", TPLevels: []float64{4}, Rows: nil, Levels: []LevelStatus{{TPPercent: 4, OK: true}},
		Table1: "parent-table-1", Complete: true, ElapsedMS: 17,
	}
	r1Result.Rows = append(r1Result.Rows, stubMetrics(4))
	snapshot := map[string]any{
		"pending": []any{p1},
		"retired": []any{
			retired(r1, StateDone, "", comp(4).key, r1Result, 1),
			retired(f1, StateFailed, "boom", comp(9).key, nil, 2),
		},
		"levels": []any{level(1)},
	}
	c1 := accepted("c1", "run-c1", 5, 5)
	j, _, err := journal.Open(dir, journal.Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendJSON := func(typ journal.Type, v any) {
		data, err := json.Marshal(v)
		if err == nil {
			err = j.Append(typ, data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// What the snapshot replaces, then the snapshot, then the segments.
	appendJSON(journal.TypeAccepted, r1)
	appendJSON(journal.TypeAccepted, f1)
	state, _ := json.Marshal(snapshot)
	if err := j.Compact(state); err != nil {
		t.Fatal(err)
	}
	appendJSON(journal.TypeAccepted, accepted("p2", "run-p2", 4, 1, 2, 3))
	appendJSON(journal.TypeLevelDone, level(2))
	appendJSON(journal.TypeAccepted, c1)
	appendJSON(journal.TypeAccepted, accepted("h1", "run-h1", 6, 4))
	appendJSON(journal.TypeCanceled, map[string]any{"job_id": "c1", "run_id": "run-c1", "finished": "2026-09-01T10:05:30Z"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")); len(segs) < 2 || len(walLeft(dir)) <= len(segs) {
		t.Fatalf("the parent journal holds %v, want a snapshot and two segments", walLeft(dir))
	}

	// Runs start once replay is over, so p2 finds p1's run in flight.
	rec, replayed := &levelRecorder{}, make(chan struct{})
	s := openDurable(t, dir, Options{Workers: 1}, func(s *Server) {
		s.runLevel = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
			<-replayed
			return rec.hook(rn, base, cfg, pct)
		}
	})
	close(replayed)
	ids := []string{"r1", "f1", "p1", "p2", "c1", "h1"}
	for id, want := range map[string]JobStatus{
		"r1": {State: StateDone, RunID: "run-r1"},
		"f1": {State: StateFailed, RunID: "run-f1", Error: "boom"},
		"c1": {State: StateCanceled, RunID: "run-c1", Error: canceledByClient},
		"p1": {State: StateDone, RunID: "run-p1", ResumedLevels: 2},
		"p2": {State: StateDone, RunID: "run-p1", ResumedLevels: 2, Coalesced: true},
		"h1": {State: StateDone, CacheHit: true},
	} {
		got := waitState(t, s, id, want.State)
		if got.RunID != want.RunID || got.Error != want.Error || got.ResumedLevels != want.ResumedLevels || got.Coalesced != want.Coalesced || got.CacheHit != want.CacheHit {
			t.Errorf("job %s: %+v, want %+v", id, got, want)
		}
	}
	if ran := rec.executed(); !reflect.DeepEqual(ran, []float64{3}) {
		t.Errorf("levels run after the fold: %v, want [3] (1 and 2 checkpointed)", ran)
	}
	if st := s.Stats(); st.ReplayedJobs != 2 || st.FlowRuns != 1 {
		t.Errorf("replayed_jobs %d, flow_runs %d; want 2 and 1", st.ReplayedJobs, st.FlowRuns)
	}
	code, body := do(t, s, "GET", "/v1/jobs/r1/result", nil)
	var res JobResult
	if code != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Table1 != "parent-table-1" || !reflect.DeepEqual(res.Rows, r1Result.Rows) {
		t.Errorf("GET /v1/jobs/r1/result = %d %s", code, body)
	}
	for id, want := range map[string]int{"f1": http.StatusInternalServerError, "c1": http.StatusGone} {
		if code, _ := do(t, s, "GET", "/v1/jobs/"+id+"/result", nil); code != want {
			t.Errorf("GET /v1/jobs/%s/result = %d, want %d", id, code, want)
		}
	}
	if st := getStatus(t, s, "r1"); st.StartedAt != st.CreatedAt {
		t.Errorf("a parent's retired job reads started_at %s, want its created_at %s", st.StartedAt, st.CreatedAt)
	}
	if code, st := postJob(t, s, jobBody(t, "acme", 4)); code != http.StatusOK || !st.CacheHit {
		t.Errorf("resubmitting r1's body: %d cache_hit=%v, want a cache hit", code, st.CacheHit)
	}
	if left := walLeft(dir); len(left) > 0 {
		t.Errorf("the parent journal is still there: %v", left)
	}
	first := answers(t, s, ids...)
	shutdown(t, s)

	s2 := openDurable(t, dir, Options{Workers: 1}, func(s *Server) { s.runLevel = rec.hook })
	defer shutdown(t, s2)
	// Every job answers as before, the two that ran in the first life
	// with their start time, resumed levels and coalescing.
	for path, again := range answers(t, s2, ids...) {
		if again != first[path] {
			t.Errorf("a second Open answers GET %s otherwise:\nfirst %s\nagain %s", path, first[path], again)
		}
	}
	if n := s2.FlowRuns(); n != 0 {
		t.Errorf("the second Open ran %d flows", n)
	}
}

// TestParentBudgetedJobFiles: job files a parent build wrote for jobs
// with a wall-clock ATPG budget (flow.atpg_budget_ms) still open. A
// pending one replays without the budget and finishes under its body's
// unbudgeted key. A retired one, filed non-cacheable with a truncated
// level, answers its GETs with its state, run id and result, less the
// level's truncated flag, which LevelStatus no longer has. Its result's
// key hashed the budget, which no request can set, so a fresh submission
// of its body runs a flow.
func TestParentBudgetedJobFiles(t *testing.T) {
	dir := t.TempDir()
	comp := func(levels ...float64) *compiled {
		var req JobRequest
		if err := json.Unmarshal(jobBody(t, "acme", levels...), &req); err != nil {
			t.Fatal(err)
		}
		c, err := compileRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	budgeted := map[string]any{"experiment": "bench", "skip_atpg": true, "atpg_budget_ms": 600000}
	rc := comp(3)
	// The key the parent gave rc's body with the budget: keyFromBench with
	// the budget in the hashed config.
	h := sha256.New()
	h.Write([]byte("tpid/v3/circuit\n" + rc.bench + "\x00tpid/v3/config\n"))
	h.Write(bytes.Replace(hashedConfigJSON(&rc.cfg, rc.levels), []byte(`"atpg_budget_ms":0`), []byte(`"atpg_budget_ms":600000`), 1))
	rKey := hex.EncodeToString(h.Sum(nil))
	if rKey == rc.key {
		t.Fatal("the budgeted key is the unbudgeted one")
	}
	rResult := &JobResult{
		Circuit: "tiny", TPLevels: []float64{3}, Levels: []LevelStatus{{TPPercent: 3, OK: true}},
		Rows: []flow.Metrics{stubMetrics(3)}, Table1: "parent-table-1", Complete: true, ElapsedMS: 17,
	}
	if err := os.MkdirAll(filepath.Join(dir, jobsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	for id, img := range map[string]map[string]any{
		"pending": {
			"job_id": "pending", "run_id": "run-p", "tenant": "acme", "name": "tiny", "bench": rc.bench,
			"tp_levels": []float64{1, 2}, "flow": budgeted, "created": "2026-09-01T10:01:00Z",
		},
		"retired": {
			"job_id": "retired", "run_id": "run-r", "tenant": "acme", "name": "tiny", "tp_levels": []float64{3},
			"state": StateDone, "cache_key": rKey, "cacheable": false, "created": "2026-09-01T10:00:00Z",
			"started": "2026-09-01T10:00:01Z", "finished": "2026-09-01T10:00:30Z",
			"result": map[string]any{
				"circuit": "tiny", "tp_levels": []float64{3}, "rows": rResult.Rows, "table1": rResult.Table1,
				"complete": true, "elapsed_ms": 17, "levels": []any{map[string]any{"tp_percent": 3, "ok": true, "truncated": true}},
			},
		},
	} {
		data, err := json.Marshal(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, jobsDir, fileName(id)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rec := &levelRecorder{}
	s := openDurable(t, dir, Options{Workers: 1}, func(s *Server) { s.runLevel = rec.hook })
	defer shutdown(t, s)
	if st := waitState(t, s, "pending", StateDone); st.Key != comp(1, 2).key || st.RunID != "run-p" {
		t.Errorf("the pending job finished as %+v, want key %s under run-p", st, comp(1, 2).key)
	}
	if st := getStatus(t, s, "retired"); st.State != StateDone || st.RunID != "run-r" || st.Key != rKey {
		t.Errorf("the retired job reads %+v", st)
	}
	resCode, body := do(t, s, "GET", "/v1/jobs/retired/result", nil)
	var res JobResult
	if resCode != http.StatusOK || json.Unmarshal(body, &res) != nil || !reflect.DeepEqual(&res, rResult) {
		t.Errorf("GET /v1/jobs/retired/result = %d %s", resCode, body)
	}
	code, st := postJob(t, s, jobBody(t, "acme", 3))
	if code != http.StatusAccepted || st.CacheHit {
		t.Fatalf("a fresh submission of the retired job's body: %d cache_hit=%v, want a run of its own", code, st.CacheHit)
	}
	waitState(t, s, st.ID, StateDone)
	if ran := rec.executed(); !reflect.DeepEqual(ran, []float64{1, 2, 3}) {
		t.Errorf("levels run: %v, want the pending job's 1, 2 and the fresh submission's 3", ran)
	}
}

// TestEmptyWALBesideFiles: a journal opened and closed on a data dir of
// job files, as the benchmark harness does between a Kill and the
// reopen, leaves an empty segment. That dir replays as its files alone:
// a job the Kill left pending finishes done, a retired one stays so, and
// the segment is gone.
func TestEmptyWALBesideFiles(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	install := func(s *Server) { installStubFlow(s, started, release, nil) }
	s := openDurable(t, dir, Options{Workers: 1}, install)
	if code := postAs(t, s, "done", jobBody(t, "acme", 2)); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitState(t, s, "done", StateDone)
	if code := postAs(t, s, "crash", jobBody(t, "acme", 3, parks)); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	<-started
	s.Kill()
	close(release)
	before := loadState(t, dir)

	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(walLeft(dir)) == 0 {
		t.Fatal("journal.Open left no segment")
	}
	if after := loadState(t, dir); after != before {
		t.Fatalf("an empty journal changed the files:\nbefore %s\nafter  %s", before, after)
	}
	s2 := openDurable(t, dir, Options{Workers: 1}, install)
	defer shutdown(t, s2)
	if st := waitState(t, s2, "crash", StateDone); st.ResumedLevels != 1 {
		t.Errorf("the crash job resumed %d levels, want the one checkpointed before the kill", st.ResumedLevels)
	}
	if st := getStatus(t, s2, "done"); st.State != StateDone {
		t.Errorf("the retired job reads %s", st.State)
	}
	if left := walLeft(dir); len(left) > 0 {
		t.Errorf("the empty journal is still there: %v", left)
	}
}

// TestDataDirNames: a file's name stays inside its directory whatever its
// id. A level key holds a '/', and an X-Request-ID may be "." or "..";
// so may the ids and keys a parent journal holds. All of them come back
// from the files under the ids they were written with.
func TestDataDirNames(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	j, _, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../../escaped/tp1", "/abs/tp2", ".."} {
		data, _ := json.Marshal(levelImage{Key: key, TPPercent: 1, Metrics: stubMetrics(1)})
		if err := j.Append(journal.TypeLevelDone, data); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	s := openDurable(t, dir, Options{Workers: 1}, func(s *Server) { s.runLevel = (&levelRecorder{}).hook })
	for i, id := range []string{".", ".."} {
		if code := postAs(t, s, id, jobBody(t, "acme", float64(i+1))); code != http.StatusAccepted {
			t.Fatalf("submit %q = %d", id, code)
		}
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs["."].state == StateDone && s.jobs[".."].state == StateDone
	})
	shutdown(t, s)

	if got := dirNames(t, root); !slices.Equal(got, []string{"data"}) {
		t.Fatalf("files outside the data dir: %v", got)
	}
	if got := dirNames(t, dir); !slices.Equal(got, []string{jobsDir, levelsDir, "runs"}) {
		t.Fatalf("the data dir holds %v", got)
	}
	if got := dirNames(t, filepath.Join(dir, jobsDir)); !slices.Equal(got, []string{"...json", "..json"}) {
		t.Fatalf("jobs/ holds %v", got)
	}
	st, err := loadDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var jobs, keys []string
	for _, r := range st.Retired {
		jobs = append(jobs, r.JobID)
	}
	for _, l := range st.Levels {
		keys = append(keys, l.Key)
	}
	sort.Strings(jobs)
	sort.Strings(keys)
	if !slices.Equal(jobs, []string{".", ".."}) || len(keys) != 5 || !slices.Contains(keys, "../../escaped/tp1") ||
		!slices.Contains(keys, "/abs/tp2") || !slices.Contains(keys, "..") {
		t.Fatalf("read back jobs %q and levels %q", jobs, keys)
	}
	for _, name := range dirNames(t, filepath.Join(dir, levelsDir)) {
		if strings.Contains(name, "/") || !strings.HasSuffix(name, ".json") {
			t.Errorf("level file %q", name)
		}
	}
}

// TestDataDirWriteFailure: an ENOSPC or EIO on a job or level file has
// one behaviour. The write leaves the file as it was; the job finishes
// from memory with its full result; journal_errors reads 1 on /v1/stats
// and on /metrics; and a reopen succeeds and reads the files as they
// are: a lost checkpoint is run again, a lost accepted image is covered
// by the retired one, and a lost retired image leaves the job pending,
// so it runs again, from its checkpoints.
func TestDataDirWriteFailure(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sub    string
		nth    int // the write into sub that fails, from 1
		errno  syscall.Errno
		reopen JobStatus // the job after the reopen
		ran    []float64 // levels run again by the resubmission after the reopen
	}{
		{"ENOSPC on a level file", levelsDir, 1, syscall.ENOSPC, JobStatus{State: StateDone}, []float64{2}},
		{"EIO on the accepted image", jobsDir, 1, syscall.EIO, JobStatus{State: StateDone}, nil},
		{"EIO on the retired image", jobsDir, 2, syscall.EIO, JobStatus{State: StateDone, ResumedLevels: 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prom := telemetry.NewPromSink("tpid")
			writes := 0
			opt := Options{Workers: 1, Sinks: []telemetry.Sink{prom}}
			opt.writeHook = func(path string) error {
				if filepath.Base(filepath.Dir(path)) != tc.sub {
					return nil
				}
				if writes++; writes == tc.nth {
					return &os.PathError{Op: "write", Path: path, Err: tc.errno}
				}
				return nil
			}
			rec := &levelRecorder{}
			s := openDurable(t, dir, opt, func(s *Server) { s.runLevel = rec.hook })
			if code := postAs(t, s, "a", jobBody(t, "acme", 2, 3)); code != http.StatusAccepted {
				t.Fatalf("submit = %d", code)
			}
			waitState(t, s, "a", StateDone)
			if code, res := getResult(t, s, "a"); code != http.StatusOK || res == nil || !res.Complete || len(res.Rows) != 2 {
				t.Fatalf("result after a failed write = %d, %+v", code, res)
			}
			// The retired image is written after the job reads done.
			waitFor(t, func() bool { return s.Stats().JournalErrors > 0 })
			code, resp := do(t, s, "GET", "/v1/stats", nil)
			var stats Stats
			if code != http.StatusOK || json.Unmarshal(resp, &stats) != nil || stats.JournalErrors != 1 {
				t.Fatalf("GET /v1/stats = %d: %s", code, resp)
			}
			mrec := httptest.NewRecorder()
			prom.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
			if want := regexp.MustCompile(`(?m)^tpid_service_journal_errors_total\{[^}]*\} 1$`); !want.MatchString(mrec.Body.String()) {
				t.Fatalf("/metrics has no journal_errors of 1:\n%s", mrec.Body.String())
			}
			shutdown(t, s)

			rec2 := &levelRecorder{}
			s2 := openDurable(t, dir, Options{Workers: 1}, func(s *Server) { s.runLevel = rec2.hook })
			defer shutdown(t, s2)
			got := waitState(t, s2, "a", tc.reopen.State)
			if got.ResumedLevels != tc.reopen.ResumedLevels || len(rec2.executed()) != 0 {
				t.Errorf("after the reopen: %+v, levels run %v; want %+v, none run", got, rec2.executed(), tc.reopen)
			}
			// A fresh mix over the same levels runs what no checkpoint holds.
			if code := postAs(t, s2, "b", jobBody(t, "acme", 3, 2)); code != http.StatusAccepted {
				t.Fatalf("resubmit = %d", code)
			}
			waitState(t, s2, "b", StateDone)
			if ran := rec2.executed(); !slices.Equal(ran, tc.ran) {
				t.Errorf("levels run after the reopen: %v, want %v", ran, tc.ran)
			}
		})
	}
}

// TestReplayRefilesCoalescedJob: a replayed job that coalesces onto a
// twin's run under another run id has its file rewritten to name that
// run. a's cancel retirement fails to write, so its file stays pending
// under a's run; b, the same body, is filed under a new run; after a
// Kill the replay re-admits a under its run and b coalesces onto it, and
// the data dir must then read back as the state of the server.
func TestReplayRefilesCoalescedJob(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool // the next job file write fails
	opt := Options{Workers: 1}
	opt.writeHook = func(path string) error {
		if filepath.Base(filepath.Dir(path)) == jobsDir && fail.CompareAndSwap(true, false) {
			return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
		}
		return nil
	}
	install := func(s *Server) { installStubFlow(s, make(chan struct{}, 1), nil, nil) }
	s := openDurable(t, dir, opt, install)
	body := jobBody(t, "acme", parks)
	if code := postAs(t, s, "a", body); code != http.StatusAccepted {
		t.Fatalf("submit a = %d", code)
	}
	fail.Store(true)
	if code, _ := do(t, s, "DELETE", "/v1/jobs/a", nil); code != http.StatusOK {
		t.Fatalf("DELETE a = %d", code)
	}
	if code := postAs(t, s, "b", body); code != http.StatusAccepted {
		t.Fatalf("submit b = %d", code)
	}
	runA, runB := getStatus(t, s, "a").RunID, getStatus(t, s, "b").RunID
	if s.Stats().JournalErrors != 1 || runA == runB {
		t.Fatalf("before the kill: %d write errors, a under %q, b under %q; want 1 and two runs",
			s.Stats().JournalErrors, runA, runB)
	}
	s.Kill()

	s2 := openDurable(t, dir, Options{Workers: 1}, install)
	defer s2.Kill()
	if st := getStatus(t, s2, "b"); st.RunID != runA || !st.Coalesced {
		t.Fatalf("b after the replay: %+v, want it coalesced onto a's run %s", st, runA)
	}
	if files, snap := loadState(t, dir), canonicalState(s2.snapshotState()); files != snap {
		t.Errorf("the data dir != snapshot of the server:\nfiles %s\nsnap  %s", files, snap)
	}
}

// TestDataDirBounded: retention bounds the files as it bounds memory.
// After more than RetainJobs retirements jobs/ holds at most RetainJobs
// files, live jobs included, and levels/ at most maxCheckpoints files;
// a reopen under tighter bounds trims both.
func TestDataDirBounded(t *testing.T) {
	defer func(n int) { maxCheckpoints = n }(maxCheckpoints)
	maxCheckpoints = 3
	dir := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	install := func(s *Server) { installStubFlow(s, started, release, nil) }
	check := func(what string, retired, pending, levels int) {
		t.Helper()
		st, err := loadDataDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Retired) != retired || len(st.Pending) != pending || len(st.Levels) != levels {
			t.Errorf("%s: %d retired and %d pending job files, %d level files; want %d, %d and %d",
				what, len(st.Retired), len(st.Pending), len(st.Levels), retired, pending, levels)
		}
	}
	s := openDurable(t, dir, Options{Workers: 1, RetainJobs: 3}, install)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("t%d", i)
		if code := postAs(t, s, id, jobBody(t, "acme", float64(10+i))); code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", id, code)
		}
		waitState(t, s, id, StateDone)
	}
	if code := postAs(t, s, "live", jobBody(t, "acme", parks)); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	<-started
	check("six retirements and a live job under RetainJobs 3", 2, 1, 3)
	s.Kill()

	maxCheckpoints = 2
	s2 := openDurable(t, dir, Options{Workers: 1, RetainJobs: 2}, install)
	<-started
	check("reopened under RetainJobs 2 and 2 checkpoints", 1, 1, 2)
	s2.Kill()
}

// snapshotState is the dataState the server holds in memory: what its
// data dir reads back as when no write failed.
func (s *Server) snapshotState() *dataState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &dataState{}
	for _, key := range s.checkpoints.order {
		st.Levels = append(st.Levels, s.checkpoints.m[key])
	}
	for _, id := range s.order {
		job := s.jobs[id]
		switch {
		case job == nil || !job.persisted:
		case job.state.terminal():
			st.Retired = append(st.Retired, *retiredImage(job))
		case job.accepted != nil:
			st.Pending = append(st.Pending, *job.accepted)
		}
	}
	return st
}
