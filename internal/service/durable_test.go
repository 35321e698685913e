package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
	"tpilayout/internal/netlist"
	"tpilayout/internal/supervise"
	"tpilayout/internal/telemetry"
)

// stubMetrics is a deterministic, JSON-exact metrics row for a level:
// the values survive a level file's JSON round trip bit-identically, so
// a checkpointed level is indistinguishable from a freshly run one.
func stubMetrics(pct float64) flow.Metrics {
	return flow.Metrics{
		Circuit:  "tiny",
		NumTP:    int(pct*10) + 1,
		NumFF:    42,
		Patterns: 7,
		FC:       98.5,
		CoreArea: 1234.5 + pct,
	}
}

// levelRecorder stubs Server.runLevel, recording which TP percentages
// actually executed a flow (as opposed to being answered from a
// checkpoint).
type levelRecorder struct {
	mu  sync.Mutex
	ran []float64
}

func (lr *levelRecorder) hook(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
	lr.mu.Lock()
	lr.ran = append(lr.ran, pct)
	lr.mu.Unlock()
	return flow.LevelResult{TPPercent: pct, Metrics: stubMetrics(pct)}
}

func (lr *levelRecorder) executed() []float64 {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	out := append([]float64(nil), lr.ran...)
	sort.Float64s(out)
	return out
}

// openDurable opens a durable server on dir with a replay gate, installs
// stubs while replay is parked, then releases it.
func openDurable(t *testing.T, dir string, opt Options, install func(*Server)) *Server {
	t.Helper()
	gate := make(chan struct{})
	opt.DataDir = dir
	opt.replayGate = gate
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if install != nil {
		install(s)
	}
	close(gate)
	waitFor(t, func() bool { return s.Stats().Ready })
	return s
}

// panicStageError is a recovered stage panic: a StageError wrapping a
// supervise.PanicError, as supervision isolates it.
func panicStageError(pct float64) error {
	return &flow.StageError{
		Stage: flow.StageSweep, TPPercent: pct,
		Err: supervise.AsPanicError("boom"),
	}
}

// TestResubmitSharesCheckpoints: sweeps with different level mixes over
// the same circuit+config share one checkpoint namespace, so a
// resubmission runs only the levels no earlier sweep completed.
func TestResubmitSharesCheckpoints(t *testing.T) {
	rec := &levelRecorder{}
	// Every span_start any run emits, to count sweeps per run below.
	var spanMu sync.Mutex
	var spans []telemetry.Event
	sink := telemetry.FuncSink(func(e telemetry.Event) {
		if e.Type == telemetry.EventSpanStart {
			spanMu.Lock()
			spans = append(spans, e)
			spanMu.Unlock()
		}
	})
	s := openDurable(t, t.TempDir(), Options{Workers: 1, ExtraSinks: []telemetry.Sink{sink}}, func(s *Server) {
		// Record the level, then run the real flow, so levels open run spans.
		real := s.runLevel
		s.runLevel = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
			rec.hook(rn, base, cfg, pct)
			return real(rn, base, cfg, pct)
		}
	})
	defer shutdown(t, s)

	_, st1 := postJob(t, s, jobBody(t, "acme", 0, 1))
	waitState(t, s, st1.ID, StateDone)

	// Different level list → different cache key, same base key: level 1
	// must be answered from its checkpoint.
	code, st2 := postJob(t, s, jobBody(t, "acme", 1, 5))
	if code != http.StatusAccepted || st2.CacheHit {
		t.Fatalf("resubmit with new mix: code=%d cache_hit=%v, want 202 fresh run", code, st2.CacheHit)
	}
	got := waitState(t, s, st2.ID, StateDone)
	if got.ResumedLevels != 1 {
		t.Fatalf("second sweep resumed_levels = %d, want 1", got.ResumedLevels)
	}
	if ran := rec.executed(); !reflect.DeepEqual(ran, []float64{0, 1, 5}) {
		t.Fatalf("executed levels %v, want [0 1 5] (level 1 exactly once)", ran)
	}

	// The run's span tree is the engine's: a run resuming 3 of 6 levels
	// opens one sweep with one run child per executed level, and a run
	// answered wholly from checkpoints opens none.
	sweepOf := func(runID string) (sweeps, runs int) {
		spanMu.Lock()
		defer spanMu.Unlock()
		var sweepID int64
		for _, e := range spans {
			if e.Attrs["run_id"] == runID && e.Stage == flow.StageSweep {
				sweeps, sweepID = sweeps+1, e.ID
			}
		}
		for _, e := range spans {
			if e.Attrs["run_id"] == runID && e.Stage == flow.StageRun && e.Parent == sweepID {
				runs++
			}
		}
		return sweeps, runs
	}
	_, st3 := postJob(t, s, jobBody(t, "acme", 0, 1, 2, 3, 4, 5))
	if got := waitState(t, s, st3.ID, StateDone); got.ResumedLevels != 3 {
		t.Fatalf("six-level sweep resumed_levels = %d, want 3", got.ResumedLevels)
	}
	if sweeps, runs := sweepOf(st3.RunID); sweeps != 1 || runs != 3 {
		t.Fatalf("run resuming 3 of 6 levels: %d sweep spans with %d run children, want 1 with 3", sweeps, runs)
	}
	_, st4 := postJob(t, s, jobBody(t, "acme", 5, 0))
	if got := waitState(t, s, st4.ID, StateDone); got.ResumedLevels != 2 || got.CacheHit {
		t.Fatalf("checkpointed mix: resumed_levels %d cache_hit %v, want 2 from a fresh run", got.ResumedLevels, got.CacheHit)
	}
	if sweeps, _ := sweepOf(st4.RunID); sweeps != 0 {
		t.Fatalf("fully checkpointed run opened %d sweep spans, want none", sweeps)
	}
}

// TestReplayAnswersRetired: after a clean shutdown, a restarted daemon
// serves status and results of finished jobs without re-running
// anything, and recovered results re-enter the cache in retirement
// order under the byte budget (oldest evicted first).
func TestReplayAnswersRetired(t *testing.T) {
	dir := t.TempDir()
	s1 := openDurable(t, dir, Options{Workers: 1}, func(s *Server) {
		s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }
	})

	var ids []string
	var bodies [][]byte
	for _, lvl := range []float64{3, 4, 6} {
		body := jobBody(t, "acme", lvl)
		_, st := postJob(t, s1, body)
		waitState(t, s1, st.ID, StateDone)
		ids = append(ids, st.ID)
		bodies = append(bodies, body)
	}
	// Measure one result's cache cost, the response body it keeps (all
	// three are the same shape).
	code, resBytes := do(t, s1, "GET", "/v1/jobs/"+ids[0]+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	shutdown(t, s1)

	// Budget for two results: replay inserts in retirement order, so the
	// OLDEST result (job 0) is the one the LRU evicts.
	s2 := openDurable(t, dir, Options{Workers: 1, CacheBytes: int64(len(resBytes))*2 + 64}, func(s *Server) {
		s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }
	})
	defer shutdown(t, s2)

	// All three jobs are queryable with their results, no flows run.
	for _, id := range ids {
		st := getStatus(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("replayed job %s state = %s, want done", id, st.State)
		}
		code, res := getResult(t, s2, id)
		if code != http.StatusOK || res.Table1 != "stub-table-1" {
			t.Fatalf("replayed result %s: code=%d", id, code)
		}
	}
	if n := s2.FlowRuns(); n != 0 {
		t.Fatalf("replay ran %d flows, want 0", n)
	}
	if entries := s2.Stats().CacheEntries; entries != 2 {
		t.Fatalf("recovered cache entries = %d, want 2 (budget holds two results)", entries)
	}

	// Newest results hit the cache; the evicted oldest re-runs.
	codeNew, stNew := postJob(t, s2, bodies[2])
	if codeNew != http.StatusOK || !stNew.CacheHit {
		t.Fatalf("resubmit of newest retired job: code=%d cache_hit=%v, want 200 hit", codeNew, stNew.CacheHit)
	}
	codeOld, stOld := postJob(t, s2, bodies[0])
	if codeOld != http.StatusAccepted || stOld.CacheHit {
		t.Fatalf("resubmit of evicted oldest job: code=%d cache_hit=%v, want 202 fresh", codeOld, stOld.CacheHit)
	}
	waitState(t, s2, stOld.ID, StateDone)
}

// TestReplayedJobStreamsItsRun: a retired job read back after a restart
// streams the data frames its run archived, from the start and from a
// Last-Event-ID, exactly as it did before the restart. A coalesced job
// streams the run it joined; a cache answer ran nothing and streams no
// frames after any number of restarts. The first daemon caches nothing,
// so the job that the second answers from its cache is one it filed.
func TestReplayedJobStreamsItsRun(t *testing.T) {
	const blocks, parks = 7, 8 // levels that run until released or canceled
	hold := map[float64]chan struct{}{blocks: make(chan struct{}), parks: make(chan struct{})}
	started := make(chan float64, 1)
	dir := t.TempDir()
	s1 := openDurable(t, dir, Options{Workers: 1, CacheBytes: 1}, func(s *Server) {
		real := s.runLevel
		s.runLevel = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
			if ch, ok := hold[pct]; ok {
				started <- pct
				select {
				case <-ch:
				case <-rn.ctx.Done():
				}
			}
			return real(rn, base, cfg, pct)
		}
	})
	frames := func(s *Server, ids ...string) map[string]string {
		out := map[string]string{}
		for _, id := range ids {
			for _, from := range []string{"", "3"} {
				req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/events", nil)
				if from != "" {
					req.Header.Set("Last-Event-ID", from)
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("GET events of %s = %d", id, rec.Code)
				}
				data, _, _ := strings.Cut(rec.Body.String(), "event: done\n")
				out[id+" from "+from] = data
			}
		}
		return out
	}
	same := func(before, after map[string]string) {
		t.Helper()
		for what, got := range after {
			if got != before[what] {
				t.Errorf("events of %s changed across the restart:\nbefore:\n%s\nafter:\n%s", what, before[what], got)
			}
		}
	}

	_, p := postJob(t, s1, jobBody(t, "acme", 0, 1))
	waitState(t, s1, p.ID, StateDone)
	// x holds the one worker, so a's run queues and b coalesces onto it.
	_, x := postJob(t, s1, jobBody(t, "acme", blocks))
	<-started
	_, a := postJob(t, s1, jobBody(t, "acme", 2, 3))
	_, b := postJob(t, s1, jobBody(t, "acme", 2, 3))
	if !b.Coalesced {
		t.Fatal("b did not coalesce onto a's queued run")
	}
	close(hold[blocks])
	for _, st := range []JobStatus{p, x, a, b} {
		waitState(t, s1, st.ID, StateDone)
		waitArchived(t, s1, st.RunID)
	}
	ran := []string{p.ID, x.ID, a.ID, b.ID}
	live := frames(s1, ran...)
	if live[p.ID+" from "] == "" || live[b.ID+" from "] != live[a.ID+" from "] {
		t.Fatalf("before the restart: done job streams %q, coalesced %q against %q",
			live[p.ID+" from "], live[b.ID+" from "], live[a.ID+" from "])
	}
	// The crash leaves y running and c, a repeat of p, filed and queued.
	_, y := postJob(t, s1, jobBody(t, "acme", parks))
	<-started
	_, c := postJob(t, s1, jobBody(t, "acme", 0, 1))
	if c.CacheHit {
		t.Fatal("the first daemon answered c from a cache it should not keep")
	}
	s1.Kill()

	s2 := openDurable(t, dir, Options{Workers: 1}, nil)
	waitState(t, s2, y.ID, StateDone)
	if st := waitState(t, s2, c.ID, StateDone); !st.CacheHit {
		t.Fatal("the second daemon did not answer c from its cache")
	}
	waitArchived(t, s2, getStatus(t, s2, y.ID).RunID)
	same(live, frames(s2, ran...))
	all := append(ran, y.ID, c.ID)
	replayed := frames(s2, all...)
	if replayed[y.ID+" from "] == "" || replayed[c.ID+" from "] != "" || replayed[c.ID+" from 3"] != "" {
		t.Fatalf("second daemon: y streams %q, the cache answer %q", replayed[y.ID+" from "], replayed[c.ID+" from "])
	}
	shutdown(t, s2)

	s3 := openDurable(t, dir, Options{Workers: 1}, nil)
	defer shutdown(t, s3)
	same(replayed, frames(s3, all...))
}

// TestReplayToleratesRemovedFlowFields: admission rejects a flow field
// this build does not know, replay must not. A data dir written while
// flow.sweep_mode and flow.atpg_memo still existed — a pending job
// accepted as incremental, with one level checkpointed under the old
// <base>/incr/tp0 key — re-queues that job and finishes it with the
// tables a fresh submission gets, instead of retiring it
// failed-on-replay. The /incr/ checkpoint is never matched, and neither
// is the other level's checkpoint under the base key that builds before
// the tpid/v2 key domain derived for this request: both levels run through
// runLevel. A second job's DELETE is in the journal as the canceled record
// those builds wrote; it replays as canceled, not re-run.
func TestReplayToleratesRemovedFlowFields(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := json.Marshal(map[string]any{
		"job_id": "old-1", "tenant": "acme", "name": "tiny", "bench": testBench,
		"tp_levels": []float64{0, 2}, "created": "2026-08-08T13:07:25Z",
		"flow": map[string]any{"skip_atpg": true, "sweep_mode": "incremental", "atpg_memo": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var req JobRequest
	if err := json.Unmarshal(jobBody(t, "acme", 0, 2), &req); err != nil {
		t.Fatal(err)
	}
	comp, err := compileRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	// stubMetrics is not what the real flow produces, so a match on this
	// record would show in the tables.
	levelDone, err := json.Marshal(levelImage{
		Key: comp.baseKey + "/incr/tp0", TPPercent: 0, Metrics: stubMetrics(0), JobID: "old-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	// comp.baseKey as the parent of the v2 domain computed it (14b4287).
	const v1BaseKey = "af5844279a772403af1c6f5c49c03cd8ce6fe8e75c61bb91b40baed81e99c840"
	if comp.baseKey == v1BaseKey {
		t.Fatal("base key is still the tpid/v1 one")
	}
	levelDoneV1, err := json.Marshal(levelImage{
		Key: levelKey(v1BaseKey, 2), TPPercent: 2, Metrics: stubMetrics(2), JobID: "old-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted2 := bytes.Replace(accepted, []byte(`"old-1"`), []byte(`"old-2"`), 1)
	canceled := []byte(`{"job_id":"old-2","finished":"2026-08-08T13:07:26Z"}`)
	for _, r := range []struct {
		typ     journal.Type
		payload []byte
	}{
		{journal.TypeAccepted, accepted}, {journal.TypeLevelDone, levelDone}, {journal.TypeLevelDone, levelDoneV1},
		{journal.TypeAccepted, accepted2}, {journal.TypeCanceled, canceled},
	} {
		if err := j.Append(r.typ, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Int32
	s := openDurable(t, dir, Options{Workers: 1}, func(s *Server) {
		inner := s.runLevel
		s.runLevel = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
			ran.Add(1)
			return inner(rn, base, cfg, pct)
		}
	})
	defer shutdown(t, s)
	st := waitState(t, s, "old-1", StateDone)
	if n := s.Stats().ReplayedJobs; n != 1 {
		t.Fatalf("replayed_jobs = %d, want 1", n)
	}
	if c := getStatus(t, s, "old-2"); c.State != StateCanceled || c.Error != canceledByClient {
		t.Fatalf("job canceled by a parent-format record: %+v", c)
	}
	if n := ran.Load(); n != 2 || st.ResumedLevels != 0 {
		t.Fatalf("replayed job ran %d levels and resumed %d, want 2 and 0 (neither old checkpoint may match)",
			n, st.ResumedLevels)
	}
	_, got := getResult(t, s, "old-1")

	fresh := New(Options{Workers: 1})
	defer shutdown(t, fresh)
	_, fst := postJob(t, fresh, jobBody(t, "acme", 0, 2))
	waitState(t, fresh, fst.ID, StateDone)
	_, want := getResult(t, fresh, fst.ID)
	if got == nil || want == nil || !got.Complete || !want.Complete {
		t.Fatalf("results incomplete: replayed %+v, fresh %+v", got, want)
	}
	if got.Table1 != want.Table1 || got.Table2 != want.Table2 || got.Table3 != want.Table3 {
		t.Fatalf("replayed tables differ from a fresh submission:\n%s%s%s\nvs\n%s%s%s",
			got.Table1, got.Table2, got.Table3, want.Table1, want.Table2, want.Table3)
	}
}

// TestReadyzGatesReplay: while the data dir replays, /healthz is 200
// (liveness), /readyz is 503, and submissions bounce with 503; all flip
// once replay completes.
func TestReadyzGatesReplay(t *testing.T) {
	gate := make(chan struct{})
	s, err := Open(Options{Workers: 1, DataDir: t.TempDir(), replayGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	if code, _ := do(t, s, "GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during replay = %d, want 200", code)
	}
	if code, body := do(t, s, "GET", "/readyz", nil); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "replaying") {
		t.Fatalf("readyz during replay = %d %s, want 503 replaying", code, body)
	}
	if code, _ := postJobCode(t, s, jobBody(t, "acme", 1)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during replay = %d, want 503", code)
	}

	close(gate)
	waitFor(t, func() bool { return s.Stats().Ready })
	if code, _ := do(t, s, "GET", "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after replay = %d, want 200", code)
	}
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }
	code, st := postJob(t, s, jobBody(t, "acme", 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit after replay = %d, want 202", code)
	}
	waitState(t, s, st.ID, StateDone)
}

// TestRetryAfterJitterBounds: every 429 carries a Retry-After of 1–4
// seconds, jittered so a synchronized client fleet spreads its retries.
func TestRetryAfterJitterBounds(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-rn.ctx.Done():
		}
		return stubResult(rn), nil
	}
	defer close(release)

	postJob(t, s, jobBody(t, "acme", 1)) // occupies the worker
	<-started
	postJob(t, s, jobBody(t, "acme", 2)) // fills the queue

	for i := 0; i < 12; i++ {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(jobBody(t, "acme", float64(3+i)))))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("overflow submit %d = %d, want 429", i, rec.Code)
		}
		ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || ra < 1 || ra > 4 {
			t.Fatalf("Retry-After = %q, want integer in [1,4]", rec.Header().Get("Retry-After"))
		}
	}
}

// TestSSEResumeWithLastEventID: an SSE client whose connection drops
// reconnects with Last-Event-ID and resumes exactly where the stream
// tore — no replayed and no skipped frames. An id the stream never
// reached resumes at its end.
func TestSSEResumeWithLastEventID(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)

	emitted := make(chan struct{})
	release := make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		// A balanced 8-event trace: root + three children.
		tr := telemetry.New(rn.events)
		root := tr.StartSpan("sweep", -1)
		for _, pct := range []float64{0, 2, 5} {
			root.ChildTP("level", pct).End()
		}
		root.End()
		close(emitted)
		select {
		case <-release:
		case <-rn.ctx.Done():
			return nil, rn.ctx.Err()
		}
		return stubResult(rn), nil
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	_, st := postJob(t, s, jobBody(t, "acme", 0, 2, 5))
	<-emitted

	// First connection: read the first 4 frames, then drop.
	frames1, _ := readSSEFrames(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "", 4)
	if len(frames1) != 4 {
		t.Fatalf("first connection read %d frames, want 4", len(frames1))
	}
	for k, f := range frames1 {
		if f.id != k {
			t.Fatalf("frame %d carries id %d", k, f.id)
		}
	}

	// Reconnect with Last-Event-ID: the stream must resume at frame 4.
	close(release)
	waitState(t, s, st.ID, StateDone)
	frames2, done := readSSEFrames(t, ts.URL+"/v1/jobs/"+st.ID+"/events", strconv.Itoa(frames1[3].id), -1)
	if len(frames2) != 4 {
		t.Fatalf("resumed connection read %d frames, want 4 (ids 4..7): %+v", len(frames2), frames2)
	}
	for k, f := range frames2 {
		if f.id != 4+k {
			t.Fatalf("resumed frame %d carries id %d, want %d", k, f.id, 4+k)
		}
	}
	if done == "" {
		t.Fatal("resumed stream ended without a done frame")
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(done), &final); err != nil || final.State != StateDone {
		t.Fatalf("done frame: %v %s", err, done)
	}
	// The union of both connections is the complete stream.
	var ndjson strings.Builder
	for _, f := range append(frames1, frames2...) {
		ndjson.WriteString(f.data)
		ndjson.WriteByte('\n')
	}
	if n := strings.Count(ndjson.String(), "\n"); n != 8 {
		t.Fatalf("stitched stream has %d events, want 8", n)
	}

	// An id past the retained stream — here MaxInt, where id+1 wraps —
	// resumes at its end: no frames, then the done frame.
	frames3, done := readSSEFrames(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "9223372036854775807", -1)
	if len(frames3) != 0 || done == "" {
		t.Fatalf("Last-Event-ID past the stream: %d frames, done frame %q; want none and a done frame", len(frames3), done)
	}
}

type sseFrame struct {
	id   int
	data string
}

// readSSEFrames reads data frames (with their SSE ids) from an events
// stream, optionally sending Last-Event-ID. maxFrames > 0 drops the
// connection after that many frames (simulating a network tear);
// maxFrames < 0 reads to EOF and also returns the done-frame payload.
func readSSEFrames(t *testing.T, url, lastEventID string, maxFrames int) ([]sseFrame, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}

	var frames []sseFrame
	var doneFrame string
	id, inDone := -1, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			inDone = true
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.Atoi(strings.TrimPrefix(line, "id: ")); err == nil {
				id = n
			}
		case strings.HasPrefix(line, "data: "):
			if inDone {
				doneFrame = strings.TrimPrefix(line, "data: ")
			} else {
				frames = append(frames, sseFrame{id: id, data: strings.TrimPrefix(line, "data: ")})
				if maxFrames > 0 && len(frames) >= maxFrames {
					return frames, "" // tear the connection here
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return frames, doneFrame
}
