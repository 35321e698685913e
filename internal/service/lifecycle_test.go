package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
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

// loadState is what a restart would read back from dir, as
// canonicalState renders it.
func loadState(t testing.TB, dir string) string {
	t.Helper()
	st, err := loadDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return canonicalState(st)
}

// fileStates names each job file in dir by the state it holds ("" for
// a pending one).
func fileStates(t testing.TB, dir string) map[string]State {
	t.Helper()
	st, err := loadDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]State{}
	for _, img := range append(st.Pending, st.Retired...) {
		out[img.JobID] = img.State
	}
	return out
}

// TestLifecycleTable walks the two paths of the run state machine that
// TestChaosRecoveryInvariants's random actions cannot reach, because each
// needs a submission to race the server between admit's job file write
// and its look under the lock, on a durable server. Per path it checks
// the final states, what /v1/stats counted, which job files the data dir
// holds, and that reading them back gives the state of the server.
func TestLifecycleTable(t *testing.T) {
	const blocks = 1 // the stub flow runs this level until released or canceled
	type env struct {
		t       *testing.T
		s       *Server
		started chan struct{}
		release chan struct{}
		// onWrite, when armed, runs once inside the next job file write —
		// between admit's file and its look under the lock.
		onWrite func()
	}
	type counts struct{ done, failed, canceled, rejected, flows int64 }
	type path struct {
		name  string
		drive func(e *env) map[string]State
		stats counts
		files map[string]State
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
				e.onWrite = func() { e.s.cache.Put(key, encodeResult(&JobResult{Circuit: "tiny", Complete: true})) }
				post(e, "a", 200, 2)
				if st := getStatus(e.t, e.s, "a"); !st.CacheHit || st.RunID != "" {
					e.t.Fatalf("status = %+v, want a cache hit under no run", st)
				}
				return map[string]State{"a": StateDone}
			},
			stats: counts{done: 1},
			files: map[string]State{"a": StateDone},
		},
		{
			name: "push refused, compensated",
			drive: func(e *env) map[string]State {
				post(e, "a", 202, blocks)
				<-e.started
				// The one queue slot fills after admit's look at the queue.
				filler := &run{tenant: "filler"}
				e.onWrite = func() {
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
			stats: counts{done: 1, rejected: 1, flows: 1},
			files: map[string]State{"a": StateDone},
		},
	}

	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			e := &env{t: t, started: make(chan struct{}, 1), release: make(chan struct{})}
			var hookMu sync.Mutex
			opt := Options{Workers: 1, QueueDepth: 1}
			opt.writeHook = func(path string) error {
				hookMu.Lock()
				f := e.onWrite
				if filepath.Base(filepath.Dir(path)) == jobsDir {
					e.onWrite = nil
				}
				hookMu.Unlock()
				if f != nil && filepath.Base(filepath.Dir(path)) == jobsDir {
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
			before := s.Stats()

			want := p.drive(e)
			for id, state := range want {
				waitState(t, s, id, state)
			}
			// Every run has ended, so the drain writes nothing more.
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			after := s.Stats()
			got := counts{
				after.JobsDone - before.JobsDone, after.JobsFailed - before.JobsFailed,
				after.JobsCanceled - before.JobsCanceled, after.Rejected - before.Rejected,
				after.FlowRuns - before.FlowRuns,
			}
			if got != p.stats {
				t.Errorf("stats delta = %+v, want %+v", got, p.stats)
			}
			if files := fileStates(t, dir); !reflect.DeepEqual(files, p.files) {
				t.Errorf("job files = %v, want %v", files, p.files)
			}
			if files, snap := loadState(t, dir), canonicalState(s.snapshotState()); files != snap {
				t.Errorf("the data dir != snapshot of the server:\nfiles %s\nsnap  %s", files, snap)
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

// TestFilesAfterRetirements: after jobs retired done, failed and
// canceled, with one job still running, the data dir reads back as the
// state of the server. Retired jobs no longer hold their accepted
// images, and their files no bench text; the pending one keeps its
// image, bench text included, and a restart runs it under its run id.
func TestFilesAfterRetirements(t *testing.T) {
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

	if files, snap := loadState(t, dir), canonicalState(s.snapshotState()); files != snap {
		t.Fatalf("the data dir != snapshot of the server:\nfiles %s\nsnap  %s", files, snap)
	}
	st, err := loadDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 1 || st.Pending[0].JobID != "p" || st.Pending[0].Bench == "" || st.Pending[0].Flow == nil {
		t.Fatalf("pending job files: %+v", st.Pending)
	}
	for _, r := range st.Retired {
		if r.Bench != "" || r.Flow != nil || r.State != want[r.JobID] {
			t.Errorf("retired file of %s holds state %s, bench %d bytes, flow %v", r.JobID, r.State, len(r.Bench), r.Flow)
		}
	}
	s.mu.Lock()
	for id, j := range s.jobs {
		if (j.accepted != nil) != (id == "p") || (j.run != nil) != (id == "p") {
			t.Errorf("job %s (%s) holds accepted image %v, run %v", id, j.state, j.accepted != nil, j.run != nil)
		}
	}
	s.mu.Unlock()

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
