package service

import (
	"bufio"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
)

// designWatch tells, by a finalizer on each watched design, whether the
// design a run executes on has been collected. (Go 1.22 has no weak
// pointers.)
type designWatch struct {
	mu   sync.Mutex
	live map[string]bool // run id → its design not collected yet
}

func newDesignWatch() *designWatch { return &designWatch{live: map[string]bool{}} }

// watch puts the finalizer on rn's design, once per run.
func (w *designWatch) watch(rn *run) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, seen := w.live[rn.id]; seen {
		return
	}
	w.live[rn.id] = true
	id := rn.id
	runtime.SetFinalizer(rn.designN, func(*netlist.Netlist) {
		w.mu.Lock()
		w.live[id] = false
		w.mu.Unlock()
	})
}

// watchJob watches the design of the run job id waits on.
func (w *designWatch) watchJob(t *testing.T, s *Server, id string) {
	t.Helper()
	s.mu.Lock()
	rn := s.jobs[id].run
	s.mu.Unlock()
	if rn == nil {
		t.Fatalf("job %s waits on no run", id)
	}
	w.watch(rn)
}

// collected runs the collector a few rounds and reports whether the
// design of run id is gone. The rounds leave the run's worker time to
// return, and finalizers time to run on their own goroutine.
func (w *designWatch) collected(t *testing.T, id string) bool {
	t.Helper()
	for round := 0; round < 20; round++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		w.mu.Lock()
		live, seen := w.live[id]
		w.mu.Unlock()
		if !seen {
			t.Fatalf("run %s: no design was watched", id)
		}
		if !live {
			return true
		}
	}
	return false
}

// The stub flow of the retirement tests keys its behaviour on TP levels.
const (
	parks = 1 // the level runs until released or its run is canceled
	fails = 9 // a run whose first level this is fails after its levels ran
)

// installStubFlow runs s's real level driver over stub levels: a parks
// level signals started (if nobody has yet) and waits for release, every
// other level returns stubMetrics, and a run led by a fails level fails.
// each, when set, sees every run that executes a level.
func installStubFlow(s *Server, started chan<- struct{}, release <-chan struct{}, each func(*run)) {
	s.runLevel = func(rn *run, _ *netlist.Netlist, _ flow.Config, pct float64) flow.LevelResult {
		if each != nil {
			each(rn)
		}
		if pct == parks {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-rn.ctx.Done():
				return flow.LevelResult{TPPercent: pct, Err: rn.ctx.Err()}
			}
		}
		return flow.LevelResult{TPPercent: pct, Metrics: stubMetrics(pct)}
	}
	s.runFlow = func(rn *run) (*JobResult, error) {
		res, err := s.sweepRun(rn)
		if rn.levels[0] == fails {
			return nil, errors.New("boom")
		}
		return res, err
	}
}

// TestRetiredRunIsCollectable: once every job of a run is terminal, the
// design the run executed on is garbage — on every path a job can take
// to its end. A retained job keeps its answer, not its run.
func TestRetiredRunIsCollectable(t *testing.T) {
	type env struct {
		t       *testing.T
		dir     string
		s       *Server
		w       *designWatch
		started chan struct{}
		release chan struct{}
	}
	open := func(e *env) {
		e.s = openDurable(e.t, e.dir, Options{Workers: 1}, func(s *Server) {
			installStubFlow(s, e.started, e.release, e.w.watch)
		})
	}
	post := func(e *env, id string, want int, levels ...float64) {
		if code := postAs(e.t, e.s, id, jobBody(e.t, "acme", levels...)); code != want {
			e.t.Fatalf("submit %s = %d, want %d", id, code, want)
		}
	}
	del := func(e *env, id string) {
		if code, _ := do(e.t, e.s, "DELETE", "/v1/jobs/"+id, nil); code != http.StatusOK {
			e.t.Fatalf("DELETE %s = %d", id, code)
		}
	}
	collected := func(e *env, id string) {
		e.t.Helper()
		if !e.w.collected(e.t, getStatus(e.t, e.s, id).RunID) {
			e.t.Fatalf("the design of job %s's run is still reachable after it retired", id)
		}
	}

	cases := []struct {
		name  string
		drive func(e *env)
	}{
		{"done", func(e *env) {
			post(e, "a", 202, 2)
			waitState(e.t, e.s, "a", StateDone)
			collected(e, "a")
		}},
		{"failed", func(e *env) {
			post(e, "a", 202, fails)
			waitState(e.t, e.s, "a", StateFailed)
			collected(e, "a")
		}},
		{"DELETE of the only waiter of a queued run", func(e *env) {
			post(e, "x", 202, parks)
			<-e.started
			post(e, "a", 202, 2)
			e.w.watchJob(e.t, e.s, "a")
			del(e, "a")
			// The worker is still busy with x: a's run never left the queue.
			collected(e, "a")
			close(e.release)
			waitState(e.t, e.s, "x", StateDone)
		}},
		{"coalesced twin", func(e *env) {
			post(e, "a", 202, parks)
			<-e.started
			post(e, "b", 202, parks)
			if !getStatus(e.t, e.s, "b").Coalesced {
				e.t.Fatal("b did not coalesce onto a's run")
			}
			close(e.release)
			waitState(e.t, e.s, "a", StateDone)
			waitState(e.t, e.s, "b", StateDone)
			collected(e, "b")
		}},
		{"replayed after Kill and reopen", func(e *env) {
			post(e, "a", 202, parks)
			<-e.started
			e.s.Kill()
			close(e.release)
			e.w = newDesignWatch()
			open(e)
			waitState(e.t, e.s, "a", StateDone)
			if n := e.s.Stats().ReplayedJobs; n != 1 {
				e.t.Fatalf("replayed jobs = %d, want 1", n)
			}
			collected(e, "a")
		}},
		{"DELETE of one of two coalesced waiters", func(e *env) {
			post(e, "a", 202, parks)
			<-e.started
			post(e, "b", 202, parks)
			del(e, "a")
			if e.w.collected(e.t, getStatus(e.t, e.s, "a").RunID) {
				e.t.Fatal("the run's design was collected while b still waits on it")
			}
			close(e.release)
			waitState(e.t, e.s, "b", StateDone)
			collected(e, "b")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &env{
				t: t, dir: t.TempDir(), w: newDesignWatch(),
				started: make(chan struct{}, 1), release: make(chan struct{}),
			}
			open(e)
			// A failed case may leave a level blocked: cancel what still runs.
			defer func() { e.s.Kill() }()
			tc.drive(e)
		})
	}
}

// TestRetiredJobAnswersAsBefore: what a GET returns for a job does not
// change when its run goes away — status, result and event stream read
// the same bytes at done and after the run is collected.
// A job a DELETE retired while its coalesced twin still waited keeps
// following the run's resume counter, as it did when it held the run
// itself.
func TestRetiredJobAnswersAsBefore(t *testing.T) {
	const (
		blocks    = 7 // the level runs until released
		transient = 2 // the level fails on its first run
	)
	w := newDesignWatch()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var failedOnce atomic.Bool
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	real := s.runLevel
	s.runLevel = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
		w.watch(rn)
		switch {
		case pct == blocks:
			started <- struct{}{}
			<-release
			return flow.LevelResult{TPPercent: pct, Metrics: stubMetrics(pct)}
		case pct == transient && failedOnce.CompareAndSwap(false, true):
			return flow.LevelResult{TPPercent: pct, Err: panicStageError(pct)}
		}
		return real(rn, base, cfg, pct)
	}
	reads := func(id string) map[string]string {
		out := map[string]string{}
		for _, path := range []string{"", "/result", "/events"} {
			code, body := do(t, s, "GET", "/v1/jobs/"+id+path, nil)
			if code != http.StatusOK {
				t.Fatalf("GET %s%s = %d: %s", id, path, code, body)
			}
			out[path] = string(body)
		}
		return out
	}

	// A done job, read at done, then once the run is gone.
	_, p := postJob(t, s, jobBody(t, "acme", 0, 1))
	waitState(t, s, p.ID, StateDone)
	atDone := reads(p.ID)
	if !w.collected(t, p.RunID) {
		t.Fatal("the done job's run is still reachable")
	}
	for what, body := range reads(p.ID) {
		if body != atDone[what] {
			t.Errorf("GET %q of a retired job changed once its run was collected:\nat done:\n%s\nafter:\n%s", what, atDone[what], body)
		}
	}
	if !strings.HasPrefix(atDone["/events"], "id: 0\ndata: ") {
		t.Fatalf("the done job's stream carries no events:\n%s", atDone["/events"])
	}

	// A coalesced twin DELETE'd while its run is still queued. The run
	// then resumes levels 0 and 1 from p's checkpoints and fails level 2:
	// the twin's status follows, as the waiter's does.
	_, x := postJob(t, s, jobBody(t, "acme", blocks))
	<-started
	_, a := postJob(t, s, jobBody(t, "acme", 0, 1, transient))
	_, b := postJob(t, s, jobBody(t, "acme", 0, 1, transient))
	if !b.Coalesced {
		t.Fatal("b did not coalesce onto a's queued run")
	}
	if code, _ := do(t, s, "DELETE", "/v1/jobs/"+b.ID, nil); code != http.StatusOK {
		t.Fatalf("DELETE b = %d", code)
	}
	close(release)
	waitState(t, s, x.ID, StateDone)
	got := waitState(t, s, a.ID, StateDone)
	if got.ResumedLevels != 2 {
		t.Fatalf("a: resumed_levels %d, want 2", got.ResumedLevels)
	}
	if !w.collected(t, a.RunID) {
		t.Fatal("a's run is still reachable")
	}
	twin := getStatus(t, s, b.ID)
	if twin.State != StateCanceled || twin.ResumedLevels != got.ResumedLevels {
		t.Fatalf("DELETE'd twin: %s with resumed_levels %d; its run ended with %d",
			twin.State, twin.ResumedLevels, got.ResumedLevels)
	}
	// Both read the one stream their run emitted.
	frames := func(id string) string {
		_, body := do(t, s, "GET", "/v1/jobs/"+id+"/events", nil)
		stream, _, _ := strings.Cut(string(body), "event: done\n")
		return stream
	}
	if fa, fb := frames(a.ID), frames(b.ID); fa != fb || fa == "" {
		t.Errorf("the DELETE'd twin streams other frames than the waiter:\n%s\nvs\n%s", fb, fa)
	}
}

// TestRetiredJobAnswersAsBeforeDurable is TestRetiredJobAnswersAsBefore
// on a server with a run archive, which becomes the one copy of a
// finished run's events once it holds them. A job's status, result and
// event stream, from the start or from a Last-Event-ID, read the same
// bytes at done, while memory still holds the events, and after they
// have left it. A subscriber that connected while the run was live and
// reads one frame at a time gets every event once, in order, across the
// switch. A run the archive has evicted streams the done frame alone;
// with HistoryRuns < 0 the events stay in memory.
func TestRetiredJobAnswersAsBeforeDurable(t *testing.T) {
	inMemory := func(s *Server, id string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		rec := s.jobs[id].record
		return rec != nil && rec.retained != nil
	}
	get := func(t *testing.T, s *Server, path, lastEventID string) string {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	reads := func(t *testing.T, s *Server, id string) map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, path := range []string{"", "/result", "/events"} {
			out[path] = get(t, s, "/v1/jobs/"+id+path, "")
		}
		out["/events from 3"] = get(t, s, "/v1/jobs/"+id+"/events", "3")
		return out
	}
	same := func(t *testing.T, atDone, after map[string]string) {
		t.Helper()
		for what, body := range after {
			if body != atDone[what] {
				t.Errorf("GET %q changed once the run's events left memory:\nat done:\n%s\nafter:\n%s", what, atDone[what], body)
			}
		}
	}

	t.Run("archived", func(t *testing.T) {
		// The run's "run finished" log line comes after its jobs retired
		// and before the archive Put: holding it there keeps the events
		// in memory for the reads at done.
		hold := make(chan struct{})
		logger, err := telemetry.NewLogger(io.Discard, "text", slog.LevelInfo, telemetry.FuncSink(func(e telemetry.Event) {
			if e.Type == telemetry.EventLog && e.Msg == "run finished" {
				<-hold
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		started, release := make(chan struct{}), make(chan struct{})
		s := openDurable(t, t.TempDir(), Options{Workers: 1, FlowWorkers: 1, Log: logger}, func(s *Server) {
			real := s.runLevel
			s.runLevel = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
				if pct == parks {
					close(started)
					<-release
				}
				return real(rn, base, cfg, pct)
			}
		})
		defer shutdown(t, s)
		ts := httptest.NewServer(s)
		defer ts.Close()
		// A test that fails early must not leave the worker blocked.
		unpark, unhold := sync.OnceFunc(func() { close(release) }), sync.OnceFunc(func() { close(hold) })
		defer unpark()
		defer unhold()

		_, p := postJob(t, s, jobBody(t, "acme", 0, parks))
		<-started
		resp, err := http.Get(ts.URL + "/v1/jobs/" + p.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sub := bufio.NewReader(resp.Body)
		var frames []string
		frame := func() string {
			var f strings.Builder
			for {
				line, err := sub.ReadString('\n')
				if err != nil {
					t.Fatalf("live subscriber: %v after %d frames", err, len(frames))
				}
				if f.WriteString(line); line == "\n" {
					return f.String()
				}
			}
		}
		frames = append(frames, frame()) // level 0 ran: the stream is under way

		unpark()
		waitState(t, s, p.ID, StateDone)
		if !inMemory(s, p.ID) {
			t.Fatal("the done job's events left memory before its run was archived")
		}
		atDone := reads(t, s, p.ID)
		frames = append(frames, frame())
		unhold()
		waitArchived(t, s, p.RunID)
		waitFor(t, func() bool { return !inMemory(s, p.ID) })
		same(t, atDone, reads(t, s, p.ID))

		stream, _, _ := strings.Cut(atDone["/events"], "event: done\n")
		if !strings.HasPrefix(stream, "id: 0\ndata: ") || !strings.HasPrefix(atDone["/events from 3"], "id: 4\ndata: ") {
			t.Fatalf("the done job's streams do not start at frames 0 and 4:\n%s\nfrom 3:\n%s", atDone["/events"], atDone["/events from 3"])
		}
		for !strings.HasPrefix(frames[len(frames)-1], "event: done\n") {
			frames = append(frames, frame())
		}
		if got := strings.Join(frames[:len(frames)-1], ""); got != stream {
			t.Errorf("the live subscriber read other frames than the done job's stream:\n%s\nwant:\n%s", got, stream)
		}
	})

	t.Run("evicted", func(t *testing.T) {
		s := openDurable(t, t.TempDir(), Options{Workers: 1, HistoryRuns: 1}, nil)
		defer shutdown(t, s)
		_, a := postJob(t, s, jobBody(t, "acme", 0))
		waitState(t, s, a.ID, StateDone)
		waitArchived(t, s, a.RunID)
		waitFor(t, func() bool { return !inMemory(s, a.ID) })
		before := reads(t, s, a.ID)
		_, b := postJob(t, s, jobBody(t, "acme", 2))
		waitState(t, s, b.ID, StateDone)
		waitArchived(t, s, b.RunID)
		if code, _ := do(t, s, "GET", "/v1/runs/"+a.RunID, nil); code != http.StatusNotFound {
			t.Fatalf("GET /v1/runs/%s = %d: the run was not evicted", a.RunID, code)
		}
		after := reads(t, s, a.ID)
		_, done, _ := strings.Cut(before["/events"], "event: done\n")
		if want := "event: done\n" + done; after["/events"] != want || after["/events from 3"] != want {
			t.Errorf("an evicted run's job streams:\n%s\nfrom 3:\n%s\nwant the done frame alone:\n%s", after["/events"], after["/events from 3"], want)
		}
		for _, what := range []string{"", "/result"} {
			if after[what] != before[what] {
				t.Errorf("GET %q changed once the run was evicted:\nbefore:\n%s\nafter:\n%s", what, before[what], after[what])
			}
		}
	})

	t.Run("history off", func(t *testing.T) {
		s := openDurable(t, t.TempDir(), Options{Workers: 1, HistoryRuns: -1}, nil)
		defer shutdown(t, s)
		_, a := postJob(t, s, jobBody(t, "acme", 0))
		waitState(t, s, a.ID, StateDone)
		if !inMemory(s, a.ID) {
			t.Fatal("a server with no archive let go of the done job's events")
		}
		if ev := get(t, s, "/v1/jobs/"+a.ID+"/events", ""); !strings.HasPrefix(ev, "id: 0\ndata: ") {
			t.Fatalf("the done job's stream carries no events:\n%s", ev)
		}
	})
}
