package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tpilayout/internal/journal"
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

// TestLifecycleTable walks the two paths of the run state machine that
// TestChaosRecoveryInvariants's random actions cannot reach, because each needs a
// submission to race the server between admit's journal append and its
// look under the lock, on a durable server. Per path it checks the final
// states, what /v1/stats counted, which records the journal gained, and
// that folding every record written gives the state a compaction would
// snapshot.
func TestLifecycleTable(t *testing.T) {
	const (
		acc = journal.TypeAccepted
		ret = journal.TypeRetired
	)
	const blocks = 1 // the stub flow runs this level until released or canceled
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
	post := func(e *env, id string, want int, levels ...float64) {
		if code := postAs(e.t, e.s, id, jobBody(e.t, "acme", levels...)); code != want {
			e.t.Fatalf("submit %s = %d, want %d", id, code, want)
		}
	}

	paths := []path{
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
				s.runFlow = func(rn *run) (*JobResult, error) {
					if rn.levels[0] == blocks {
						e.started <- struct{}{}
						select {
						case <-e.release:
						case <-rn.ctx.Done():
							return nil, rn.ctx.Err()
						}
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
				if got, ok := snap.Retired[id]; !ok || got[0] != string(state) {
					t.Errorf("snapshot retires %s as %v (present %v), want %s", id, got, ok, state)
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
