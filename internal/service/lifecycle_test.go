package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"testing"

	"tpilayout/internal/journal"
	"tpilayout/internal/telemetry"
)

// postAs submits body under a client-chosen job id, so a test can name
// its jobs (and find one the server refused).
func postAs(t *testing.T, s *Server, id string, body []byte) int {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != id {
		t.Fatalf("job id %q not honoured (got %q)", id, got)
	}
	return rec.Code
}

// settle waits until no run is queued or executing and every journaled
// transition that has begun has also appended its record.
func settle(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, func() bool {
		st := s.Stats()
		s.mu.Lock()
		live := len(s.active)
		s.mu.Unlock()
		return st.Running == 0 && st.QueueDepth == 0 && live == 0
	})
	s.jgate.Lock()
	s.jgate.Unlock()
}

// foldView is what foldRecords and snapshotState must agree on.
type foldView struct {
	Pending []string
	Retired map[string][2]string // job id → state, run id
	Levels  []string
}

func viewOf(st *snapState, indexed func(string) bool) foldView {
	v := foldView{Retired: map[string][2]string{}}
	for _, p := range st.Pending {
		v.Pending = append(v.Pending, p.JobID)
	}
	for _, r := range st.Retired {
		if indexed(r.JobID) {
			v.Retired[r.JobID] = [2]string{string(r.State), r.RunID}
		}
	}
	for _, l := range st.Levels {
		v.Levels = append(v.Levels, l.Key)
	}
	sort.Strings(v.Pending)
	sort.Strings(v.Levels)
	return v
}

// TestLifecycleTable walks a job down every path of the run state
// machine on a durable server and checks, per path: the final states,
// what /v1/stats counted, which records the journal gained, and the
// invariant jgate exists for — once the server is quiet, folding every
// record written gives the state a compaction would snapshot.
func TestLifecycleTable(t *testing.T) {
	const (
		acc = journal.TypeAccepted
		lvl = journal.TypeLevelDone
		ret = journal.TypeRetired
		can = journal.TypeCanceled
	)
	// The stub flow keys its behaviour on the job's first TP level.
	const (
		blocks = 1 // runs until released or canceled
		fails  = 9
		sweeps = 5 // the real level driver over a stubbed level
	)
	type env struct {
		t       *testing.T
		s       *Server
		started chan struct{}
		release chan struct{}
		// onAppend, when armed, runs once inside the next journal append —
		// between admit's accepted record and its look under the lock.
		onAppend func()
	}
	type counts struct{ done, failed, canceled, rejected, flows int64 }
	type path struct {
		name    string
		drive   func(e *env) map[string]State
		stats   counts
		records []journal.Type
	}
	del := func(e *env, id string) {
		if code, _ := do(e.t, e.s, "DELETE", "/v1/jobs/"+id, nil); code != http.StatusOK {
			e.t.Fatalf("DELETE %s = %d", id, code)
		}
	}
	post := func(e *env, id string, want int, levels ...float64) {
		if code := postAs(e.t, e.s, id, jobBody(e.t, "acme", levels...)); code != want {
			e.t.Fatalf("submit %s = %d, want %d", id, code, want)
		}
	}

	paths := []path{
		{
			name: "queued, running, done",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, sweeps)
				return map[string]State{"a": StateDone}
			},
			stats:   counts{done: 1, flows: 1},
			records: []journal.Type{acc, lvl, ret},
		},
		{
			name: "failed",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, fails)
				return map[string]State{"a": StateFailed}
			},
			stats:   counts{failed: 1, flows: 1},
			records: []journal.Type{acc, ret},
		},
		{
			name: "DELETE while queued",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, blocks)
				<-e.started
				post(e, "b", 202, 2)
				del(e, "b")
				del(e, "b") // idempotent: no second record, no second count
				close(e.release)
				return map[string]State{"a": StateDone, "b": StateCanceled}
			},
			stats:   counts{done: 1, canceled: 1, flows: 1},
			records: []journal.Type{acc, acc, can, ret},
		},
		{
			name: "DELETE while running, last waiter",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, blocks)
				<-e.started
				del(e, "a")
				return map[string]State{"a": StateCanceled}
			},
			stats:   counts{canceled: 1, flows: 1},
			records: []journal.Type{acc, can},
		},
		{
			name: "DELETE while running, a waiter survives",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, blocks)
				<-e.started
				post(e, "b", 202, blocks)
				del(e, "a")
				close(e.release)
				return map[string]State{"a": StateCanceled, "b": StateDone}
			},
			stats:   counts{done: 1, canceled: 1, flows: 1},
			records: []journal.Type{acc, acc, can, ret},
		},
		{
			name: "coalesce",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, blocks)
				<-e.started
				post(e, "b", 202, blocks)
				if st := getStatus(e.t, e.s, "b"); !st.Coalesced || st.RunID != getStatus(e.t, e.s, "a").RunID {
					e.t.Fatalf("twin did not coalesce onto a's run: %+v", st)
				}
				close(e.release)
				return map[string]State{"a": StateDone, "b": StateDone}
			},
			stats:   counts{done: 2, flows: 1},
			records: []journal.Type{acc, acc, ret},
		},
		{
			name: "cache hit, unjournaled",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, 2)
				waitState(e.t, e.s, "a", StateDone)
				post(e, "b", 200, 2)
				return map[string]State{"a": StateDone, "b": StateDone}
			},
			stats:   counts{done: 2, flows: 1},
			records: []journal.Type{acc, ret},
		},
		{
			name: "cache hit found under the lock",
			drive: func(e *env) map[string]State {
				// The result lands in the cache after admit's first probe.
				key := keyOf(e.t, jobBody(e.t, "acme", 2))
				e.onAppend = func() { e.s.cache.Put(key, encodeResult(&JobResult{Circuit: "tiny", Complete: true})) }
				post(e, "a", 200, 2)
				if st := getStatus(e.t, e.s, "a"); !st.CacheHit || st.RunID != "" {
					e.t.Fatalf("status = %+v, want a cache hit under no run", st)
				}
				return map[string]State{"a": StateDone}
			},
			stats:   counts{done: 1},
			records: []journal.Type{acc, ret},
		},
		{
			name: "push refused, compensated",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, blocks)
				<-e.started
				// The one queue slot fills after admit's look at the queue.
				filler := &run{tenant: "filler"}
				e.onAppend = func() {
					if err := e.s.queue.Push(filler); err != nil {
						e.t.Error(err)
					}
				}
				post(e, "b", 429, 2)
				if code, _ := do(e.t, e.s, "GET", "/v1/jobs/b", nil); code != http.StatusNotFound {
					e.t.Errorf("refused job is queryable: GET = %d", code)
				}
				e.s.queue.Remove(filler)
				close(e.release)
				return map[string]State{"a": StateDone}
			},
			stats:   counts{done: 1, rejected: 1, flows: 1},
			records: []journal.Type{acc, acc, can, ret},
		},
		{
			name: "drain of a queued run",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, blocks)
				<-e.started
				post(e, "b", 202, 2)
				go e.s.Shutdown(context.Background())
				waitState(e.t, e.s, "b", StateCanceled)
				close(e.release)
				return map[string]State{"a": StateDone, "b": StateCanceled}
			},
			stats:   counts{done: 1, canceled: 1, flows: 1},
			records: []journal.Type{acc, acc, ret, ret},
		},
	}

	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			e := &env{t: t, started: make(chan struct{}, 1), release: make(chan struct{})}
			var hookMu sync.Mutex
			opt := Options{Workers: 1, QueueDepth: 1}
			opt.journalHook = func(op journal.Op) error {
				hookMu.Lock()
				f := e.onAppend
				if op == journal.OpAppend {
					e.onAppend = nil
				}
				hookMu.Unlock()
				if op == journal.OpAppend && f != nil {
					f()
				}
				return nil
			}
			e.s = openDurable(t, dir, opt, func(s *Server) {
				s.runLevel = (&levelRecorder{}).hook
				s.runFlow = func(rn *run) (*JobResult, error) {
					switch rn.levels[0] {
					case blocks:
						e.started <- struct{}{}
						select {
						case <-e.release:
						case <-rn.ctx.Done():
							return nil, rn.ctx.Err()
						}
					case fails:
						return nil, errors.New("boom")
					case sweeps:
						return s.sweepRun(rn)
					}
					return stubResult(rn), nil
				}
			})
			s := e.s
			defer s.Shutdown(context.Background())
			before := s.Stats()

			want := p.drive(e)
			for id, state := range want {
				waitState(t, s, id, state)
			}
			settle(t, s)

			after := s.Stats()
			got := counts{
				after.JobsDone - before.JobsDone, after.JobsFailed - before.JobsFailed,
				after.JobsCanceled - before.JobsCanceled, after.Rejected - before.Rejected,
				after.FlowRuns - before.FlowRuns,
			}
			if got != p.stats {
				t.Errorf("stats delta = %+v, want %+v", got, p.stats)
			}

			recs, err := journal.Read(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The startup compaction left one snapshot; everything after it
			// is what this path appended.
			if len(recs) == 0 || recs[0].Type != journal.TypeSnapshot {
				t.Fatalf("journal does not start with the startup snapshot: %d records", len(recs))
			}
			var types []journal.Type
			for _, r := range recs[1:] {
				types = append(types, r.Type)
			}
			if !reflect.DeepEqual(types, p.records) {
				t.Errorf("records appended = %v, want %v", types, p.records)
			}

			// A job admit refused is the one thing the journal knows and the
			// server does not: it was never indexed, and the next snapshot
			// forgets it.
			indexed := func(id string) bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.jobs[id] != nil
			}
			folded, snap := viewOf(foldRecords(recs), indexed), viewOf(s.snapshotState(), indexed)
			if !reflect.DeepEqual(folded, snap) {
				t.Errorf("fold of the journal != snapshot of the server:\nfold %+v\nsnap %+v", folded, snap)
			}
			if len(snap.Pending) != 0 {
				t.Errorf("snapshot still owes runs to %v", snap.Pending)
			}
			for id, state := range want {
				s.mu.Lock()
				journaled := s.jobs[id].journaled
				s.mu.Unlock()
				if got, ok := snap.Retired[id]; ok != journaled || (ok && got[0] != string(state)) {
					t.Errorf("snapshot retires %s as %v (present %v), want %s (journaled %v)", id, got, ok, state, journaled)
				}
			}
		})
	}
}

// keyOf is the cache key the server computes for a submission body.
func keyOf(t *testing.T, body []byte) string {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	comp, err := compileRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	return comp.key
}

// TestReplayCoalescedKeepsRunID: a job that coalesces onto its twin's run
// reports that run's id, and keeps reporting it through every way a
// restart can bring it back — re-admitted from its accepted record,
// re-admitted from a snapshot, and answered from its retirement.
func TestReplayCoalescedKeepsRunID(t *testing.T) {
	dir := t.TempDir()
	body := jobBody(t, "acme", 3)
	started := make(chan struct{}, 1)
	parked := func(s *Server) {
		s.runFlow = func(rn *run) (*JobResult, error) {
			started <- struct{}{}
			<-rn.ctx.Done()
			return nil, rn.ctx.Err()
		}
	}
	check := func(s *Server, when, want string) {
		t.Helper()
		a, b := getStatus(t, s, "a"), getStatus(t, s, "b")
		if a.RunID != want || b.RunID != want {
			t.Fatalf("%s: run_id of a = %q, of its coalesced twin = %q, want %q for both", when, a.RunID, b.RunID, want)
		}
	}

	s1 := openDurable(t, dir, Options{Workers: 1}, parked)
	postAs(t, s1, "a", body)
	<-started
	postAs(t, s1, "b", body)
	runID := getStatus(t, s1, "a").RunID
	if runID == "" || !getStatus(t, s1, "b").Coalesced {
		t.Fatalf("setup: run_id %q, twin coalesced %v", runID, getStatus(t, s1, "b").Coalesced)
	}
	check(s1, "before the crash", runID)
	s1.Kill()

	s2 := openDurable(t, dir, Options{Workers: 1}, parked)
	<-started
	check(s2, "re-admitted from accepted records", runID)
	s2.compactJournal()
	s2.Kill()

	release := make(chan struct{})
	s3 := openDurable(t, dir, Options{Workers: 1}, func(s *Server) {
		s.runFlow = func(rn *run) (*JobResult, error) {
			<-release
			return stubResult(rn), nil
		}
	})
	check(s3, "re-admitted from a snapshot", runID)
	close(release)
	waitState(t, s3, "a", StateDone)
	waitState(t, s3, "b", StateDone)
	shutdown(t, s3)

	s4 := openDurable(t, dir, Options{Workers: 1}, nil)
	check(s4, "answered from the retired record", runID)
	s4.compactJournal()
	shutdown(t, s4)

	s5 := openDurable(t, dir, Options{Workers: 1}, nil)
	defer shutdown(t, s5)
	check(s5, "answered from a snapshot", runID)
}

// TestReplayCountsOnMetrics: a job retired during journal replay goes
// through the same retire as any other, so /metrics and /v1/stats agree
// after a restart. The first life's cache is too small for the result, so
// an identical second job runs again and is still pending at the crash;
// the restarted daemon recovers the first job's result into its cache and
// answers the twin from it.
func TestReplayCountsOnMetrics(t *testing.T) {
	dir := t.TempDir()
	body := jobBody(t, "acme", 3)
	first := true
	s1 := openDurable(t, dir, Options{Workers: 1, CacheBytes: 1}, func(s *Server) {
		s.runFlow = func(rn *run) (*JobResult, error) {
			if first {
				first = false
				return stubResult(rn), nil
			}
			<-rn.ctx.Done()
			return nil, rn.ctx.Err()
		}
	})
	postAs(t, s1, "a", body)
	waitState(t, s1, "a", StateDone)
	if code := postAs(t, s1, "b", body); code != http.StatusAccepted {
		t.Fatalf("second submission = %d, want 202 (nothing fits the cache)", code)
	}
	s1.Kill()

	prom := telemetry.NewPromSink("tpid")
	s2 := openDurable(t, dir, Options{Workers: 1, Sinks: []telemetry.Sink{prom}}, nil)
	defer shutdown(t, s2)
	if st := getStatus(t, s2, "b"); st.State != StateDone || !st.CacheHit {
		t.Fatalf("replayed twin = %+v, want done from the cache", st)
	}
	stats := s2.Stats()
	if stats.JobsDone != 1 || stats.FlowRuns != 0 {
		t.Fatalf("stats after replay = %+v, want one job done and no flow run", stats)
	}
	rec := httptest.NewRecorder()
	prom.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, series := range []string{`tpid_service_jobs_done_total\{[^}]*\}`, `tpid_service_jobs_done_total\{[^}]*tenant="[^"]*"[^}]*\}`} {
		var sum int64
		for _, m := range regexp.MustCompile(`(?m)^`+series+` (\d+)$`).FindAllStringSubmatch(rec.Body.String(), -1) {
			n, _ := strconv.ParseInt(m[1], 10, 64)
			sum += n
		}
		if sum != stats.JobsDone {
			t.Errorf("%s sums to %d on /metrics, /v1/stats says jobs_done = %d\n%s", series, sum, stats.JobsDone, rec.Body.String())
		}
	}
}

// TestCompactionAfterRetirements: a compaction taken after jobs retired
// done, failed and canceled, with one job still running, snapshots what
// the journal folds to. Retired jobs no longer hold their accepted
// records; the pending one keeps its record, bench text included, and a
// restart runs it from the snapshot.
func TestCompactionAfterRetirements(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	install := func(s *Server) { installStubFlow(s, started, release, nil) }
	s := openDurable(t, dir, Options{Workers: 1}, install)
	post := func(id string, levels ...float64) {
		if code := postAs(t, s, id, jobBody(t, "acme", levels...)); code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", id, code)
		}
	}
	want := map[string]State{"a": StateDone, "c": StateDone, "f": StateFailed, "q": StateCanceled}
	post("a", 2)
	waitState(t, s, "a", StateDone)
	post("c", 3)
	waitState(t, s, "c", StateDone)
	post("f", fails)
	waitState(t, s, "f", StateFailed)
	post("p", parks)
	<-started
	post("q", 4)
	if code, _ := do(t, s, "DELETE", "/v1/jobs/q", nil); code != http.StatusOK {
		t.Fatalf("DELETE q = %d", code)
	}

	all := func(string) bool { return true }
	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before, err := journal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	foldBefore, snap := foldRecords(before), s.snapshotState()
	if !reflect.DeepEqual(viewOf(foldBefore, all), viewOf(snap, all)) {
		t.Fatalf("fold of the journal != snapshot of the server:\nfold %+v\nsnap %+v", viewOf(foldBefore, all), viewOf(snap, all))
	}
	if len(snap.Pending) != 1 || snap.Pending[0].Bench == "" || asJSON(snap.Pending[0]) != asJSON(foldBefore.Pending[0]) {
		t.Fatalf("pending job's record: snapshot %+v, journaled %+v", snap.Pending, foldBefore.Pending)
	}
	s.mu.Lock()
	for id, j := range s.jobs {
		if (j.accepted != nil) != (id == "p") || (j.run != nil) != (id == "p") {
			t.Errorf("job %s (%s) holds accepted record %v, run %v", id, j.state, j.accepted != nil, j.run != nil)
		}
	}
	s.mu.Unlock()

	s.compactJournal()
	after, err := journal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0].Type != journal.TypeSnapshot {
		t.Fatalf("compacted journal holds %d records, want the snapshot alone", len(after))
	}
	if fold, snap := asJSON(foldRecords(after)), asJSON(s.snapshotState()); fold != snap {
		t.Fatalf("fold of the compacted journal != snapshot of the server:\nfold %s\nsnap %s", fold, snap)
	}

	s.Kill()
	close(release)
	s2 := openDurable(t, dir, Options{Workers: 1}, install)
	defer shutdown(t, s2)
	if got := waitState(t, s2, "p", StateDone); got.RunID != getStatus(t, s, "p").RunID {
		t.Errorf("p resumed under run %s, accepted under %s", got.RunID, getStatus(t, s, "p").RunID)
	}
	for id, state := range want {
		if got := getStatus(t, s2, id); got.State != state {
			t.Errorf("after restart %s is %s, want %s", id, got.State, state)
		}
	}
}
