package service

// TestChaosRecoveryInvariants is the crash-recovery test. It runs random actions,
// drawn from a seed, against a real durable Server whose runLevel parks
// each level until the test finishes or fails it: submit a fresh body, an
// identical twin or a repeat of a finished body; DELETE a
// job; finish or fail a parked level; arm one data dir write fault; Kill,
// maybe leave a torn .tmp file, and reopen; drain at the end. A reference
// model of DESIGN.md §13's transition table predicts every job's state,
// error, run id, resumed levels, coalesced/cache-hit flags and result,
// and the server's queue, checkpoints, cache and data dir. After every
// step the test waits for the server to rest and asserts:
//
//  1. every GET /v1/jobs/{id} is the model's and the server knows no other
//     job, so a terminal job never changes and a restart loses exactly the
//     jobs whose file a fault left unwritten (none on an intact data dir);
//  2. loadDataDir(dir) holds the model's files (which jobs are pending or
//     retired in which state, which levels are checkpointed, no .tmp
//     left), and equals snapshotState() unless a write fault left a file
//     behind the server;
//  3. every /v1/stats counter equals the service.* counter a sink in
//     Options.Sinks summed;
//  4. after the drain no job file is owed a run unless a fault left one,
//     and at the end the goroutine count is back to its baseline.
//
// A failing seed replays under -run 'TestChaosRecoveryInvariants/seed=N'.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
)

func TestChaosRecoveryInvariants(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	before := runtime.NumGoroutine()
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runModel(t, int64(seed), t.TempDir()) })
	}
	waitGoroutines(t, before)
}

// modelFailLevel is the one body whose run fails ("boom") once its level
// ran; every other run ends done, complete unless a level failed.
const modelFailLevel = 9

// ---------------------------------------------------------------------------
// The model

type mBody struct {
	levels []float64 // sorted, distinct
}

func (b *mBody) key() string { return fmt.Sprint(b.levels) }

// mJob is what GET /v1/jobs/{id} must report for one job.
type mJob struct {
	id        string
	body      *mBody
	state     State
	errMsg    string
	runID     *string // the run id it reports: nil for none, "" until first seen
	filed     *string // the run id its pending file names
	record    *mRun   // the run whose resumed levels it reports
	run       *mRun   // the live run it waits on
	resumed   int64   // record's resumed levels at retirement: its file's
	coalesced bool
	cacheHit  bool
	failed    []float64 // levels a done job's result reports failed
	journaled bool
	// resultRead: GET /result answered as the terminal state says.
	resultRead bool
}

type mRun struct {
	id      *string
	body    *mBody
	jobs    []*mJob
	started bool
	done    bool
	missing []float64 // levels still to run, once started
	resumed int64
	failed  []float64 // levels that failed: the result is incomplete
}

type model struct {
	jobs     []*mJob // in the server's admission order
	queue    []*mRun
	running  []*mRun
	inflight map[string]*mRun
	cached   map[string]bool
	levels   map[float64]int // the checkpoint store: level → the write that filed it
	workers  int
	depth    int
	bigCache bool  // CacheBytes holds every result (else none)
	rejected int64 // 429s and data dir write errors since this server opened
	faults   int64
	faulted  bool // a write fault fired in some life

	// The data dir as loadDataDir reads it back.
	pending []*mJob // job files still owed a run, in admission order
	retired []mJob  // retired job files
	dlevels map[float64]int
	writes  int    // level checkpoints written, the versions levels and dlevels hold
	fault   string // the directory whose next write fails: armed and not fired yet
	hold    bool   // the armed fault does not fire for now
	seen    map[string]bool
}

// write applies one file write into dir, unless the armed fault fails it
// and leaves the file as it was.
func (m *model) write(dir string, apply func()) {
	if !m.hold && m.fault == dir {
		m.fault, m.faults, m.faulted = "", m.faults+1, true
		return
	}
	apply()
}

// inSync reports whether the data dir holds what the server does: every
// job file in the state of its job, naming its run while pending, and
// every checkpoint filed.
func (m *model) inSync() bool {
	var pending, retired []string
	for _, j := range m.jobs {
		if j.journaled && j.state.terminal() {
			retired = append(retired, j.id)
		} else if j.journaled {
			if j.filed != j.runID {
				return false
			}
			pending = append(pending, j.id)
		}
	}
	var dpending, dretired []string
	for _, j := range m.pending {
		dpending = append(dpending, j.id)
	}
	for _, j := range m.retired {
		dretired = append(dretired, j.id)
	}
	sort.Strings(retired)
	sort.Strings(dretired)
	return slices.Equal(pending, dpending) && slices.Equal(retired, dretired) && maps.Equal(m.levels, m.dlevels)
}

func (m *model) submit(id string, b *mBody) int {
	if m.cached[b.key()] {
		m.jobs = append(m.jobs, &mJob{id: id, body: b, state: StateDone, cacheHit: true})
		return http.StatusOK
	}
	if len(m.queue) >= m.depth && m.inflight[b.key()] == nil {
		m.rejected++
		return http.StatusTooManyRequests
	}
	j := &mJob{id: id, body: b, state: StateQueued, runID: new(string), journaled: true}
	m.jobs = append(m.jobs, j)
	m.place(j)
	m.write(jobsDir, func() { m.pending, j.filed = append(m.pending, j), j.runID })
	return http.StatusAccepted
}

// place attaches an admitted job to its in-flight twin or a new run.
func (m *model) place(j *mJob) {
	if live := m.inflight[j.body.key()]; live != nil {
		j.run, j.record, j.runID, j.coalesced = live, live, live.id, true
		if live.started {
			j.state = StateRunning
		}
		live.jobs = append(live.jobs, j)
		return
	}
	r := &mRun{id: j.runID, body: j.body, jobs: []*mJob{j}}
	j.run, j.record, j.runID = r, r, r.id
	m.queue = append(m.queue, r)
	m.inflight[j.body.key()] = r
}

// advance lets idle workers take queued runs, in order.
func (m *model) advance() {
	for len(m.running) < m.workers && len(m.queue) > 0 {
		r := m.queue[0]
		m.queue = m.queue[1:]
		m.running = append(m.running, r)
		r.started = true
		for _, j := range r.jobs {
			j.state = StateRunning
		}
		for _, pct := range r.body.levels {
			if _, ok := m.levels[pct]; ok {
				r.resumed++
			} else {
				r.missing = append(r.missing, pct)
			}
		}
		if len(r.missing) == 0 {
			m.finish(r)
		}
	}
}

// verdict ends the level r is parked in.
func (m *model) verdict(r *mRun, ok bool) {
	pct := r.missing[0]
	r.missing = r.missing[1:]
	if !ok {
		r.failed = append(r.failed, pct)
	} else {
		m.writes++
		v := m.writes
		m.write(levelsDir, func() { m.dlevels[pct] = v })
		m.levels[pct] = v
	}
	if len(r.missing) == 0 {
		m.finish(r)
	}
}

func (m *model) finish(r *mRun) {
	state, msg := StateDone, ""
	if r.body.levels[0] == modelFailLevel {
		state, msg = StateFailed, "boom"
	}
	if state == StateDone && r.failed == nil && m.bigCache {
		m.cached[r.body.key()] = true
	}
	jobs := r.jobs
	m.drop(r)
	m.retire(jobs, state, msg, false, r.failed)
}

// drop takes a run out of the queue, the workers and the inflight index.
func (m *model) drop(r *mRun) {
	r.done, r.jobs = true, nil
	m.queue = slices.DeleteFunc(m.queue, func(o *mRun) bool { return o == r })
	m.running = slices.DeleteFunc(m.running, func(o *mRun) bool { return o == r })
	if m.inflight[r.body.key()] == r {
		delete(m.inflight, r.body.key())
	}
}

// retire is the terminal transition: jobs not terminal yet take the
// verdict, one file write each, and a run that loses its last waiter is
// dropped.
func (m *model) retire(jobs []*mJob, state State, msg string, cacheHit bool, failed []float64) {
	for _, j := range jobs {
		if j.state.terminal() {
			continue
		}
		j.state, j.errMsg, j.cacheHit, j.failed = state, msg, cacheHit, failed
		if j.record != nil {
			j.resumed = j.record.resumed
		}
		if r := j.run; r != nil && !r.done {
			if r.jobs = slices.DeleteFunc(r.jobs, func(o *mJob) bool { return o == j }); len(r.jobs) == 0 {
				m.drop(r)
			}
		}
		j.run = nil
		if j.journaled {
			m.write(jobsDir, func() {
				m.pending = slices.DeleteFunc(m.pending, func(o *mJob) bool { return o == j })
				m.retired = append(m.retired, *j)
			})
		}
	}
}

// restart is a new server's replay of the data dir: retired jobs come
// back as they were filed (their cached results with them; resumed
// levels as at retirement, which a job a DELETE retired early may
// since have outgrown), and pending ones are re-admitted in order, under
// the run their file names unless they coalesce onto a twin's run, which
// their file is rewritten to name.
func (m *model) restart(workers, depth int, bigCache bool) {
	*m = model{
		inflight: map[string]*mRun{}, cached: map[string]bool{}, levels: maps.Clone(m.dlevels),
		workers: workers, depth: depth, bigCache: bigCache, pending: m.pending, retired: m.retired,
		dlevels: m.dlevels, writes: m.writes, fault: m.fault, faulted: m.faulted, seen: m.seen,
	}
	for _, r := range m.retired {
		m.jobs = append(m.jobs, &mJob{
			id: r.id, body: r.body, state: r.state, errMsg: r.errMsg, runID: r.runID, failed: r.failed, journaled: true,
			coalesced: r.coalesced, cacheHit: r.cacheHit, resumed: r.resumed,
		})
		if bigCache && r.state == StateDone && r.failed == nil {
			m.cached[r.body.key()] = true
		}
	}
	for i, p := range m.pending {
		m.pending[i] = &mJob{id: p.id, body: p.body, state: StateQueued, runID: p.runID, filed: p.filed, journaled: true}
		m.jobs = append(m.jobs, m.pending[i])
	}
	for _, j := range slices.Clone(m.pending) {
		if m.cached[j.body.key()] {
			j.runID = nil // a cache answer names no run
			m.retire([]*mJob{j}, StateDone, "", true, nil)
			continue
		}
		if m.place(j); j.runID != j.filed {
			m.write(jobsDir, func() { j.filed = j.runID })
		}
	}
}

// drain is Shutdown past its deadline: every run, queued or running, is
// canceled.
func (m *model) drain() {
	for _, r := range append(slices.Clone(m.queue), m.running...) {
		jobs := r.jobs
		m.drop(r)
		m.retire(jobs, StateCanceled, "run canceled", false, nil)
	}
}

// ---------------------------------------------------------------------------
// The server under test

type parkedLevel struct {
	pct     float64
	verdict chan bool
}

type modelLife struct {
	s      *Server
	ready  chan struct{} // closed once replay is over: runs may start
	mu     sync.Mutex
	parked map[string]parkedLevel // by run id
	flows  map[*run]bool          // runs that entered runFlow → whether it returned
	sums   map[string]int64       // service.* counters the sink summed
}

func openLife(tb testing.TB, dir string, m *model, hook func(path string) error) *modelLife {
	tb.Helper()
	l := &modelLife{ready: make(chan struct{}), parked: map[string]parkedLevel{}, flows: map[*run]bool{}, sums: map[string]int64{}}
	sink := telemetry.FuncSink(func(e telemetry.Event) {
		l.mu.Lock()
		defer l.mu.Unlock()
		for k, v := range e.Counters {
			if strings.HasPrefix(k, "service.") {
				l.sums[k] += v
			}
		}
	})
	gate := make(chan struct{})
	opt := Options{
		Workers: m.workers, QueueDepth: m.depth, HistoryRuns: -1, Sinks: []telemetry.Sink{sink},
		DataDir: dir, writeHook: hook, replayGate: gate,
	}
	if !m.bigCache {
		opt.CacheBytes = 1
	}
	s, err := Open(opt)
	if err != nil {
		tb.Fatal(err)
	}
	l.s, s.runLevel = s, l.level
	s.runFlow = func(rn *run) (*JobResult, error) {
		l.mu.Lock()
		l.flows[rn] = false
		l.mu.Unlock()
		select {
		case <-l.ready:
		case <-rn.ctx.Done():
		}
		res, err := s.sweepRun(rn)
		if err == nil && rn.levels[0] == modelFailLevel {
			res, err = nil, errors.New("boom")
		}
		l.mu.Lock()
		l.flows[rn] = true
		l.mu.Unlock()
		return res, err
	}
	close(gate)
	for deadline := time.Now().Add(5 * time.Second); !s.Stats().Ready; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			tb.Fatal("replay never finished")
		}
	}
	return l
}

// level parks until the test hands down a verdict or the run ends.
func (l *modelLife) level(rn *run, _ *netlist.Netlist, _ flow.Config, pct float64) flow.LevelResult {
	p := parkedLevel{pct, make(chan bool, 1)}
	l.mu.Lock()
	l.parked[rn.id] = p
	l.mu.Unlock()
	select {
	case ok := <-p.verdict:
		if ok {
			return flow.LevelResult{TPPercent: pct, Metrics: stubMetrics(pct)}
		}
		return flow.LevelResult{TPPercent: pct, Err: panicStageError(pct)}
	case <-rn.ctx.Done():
		l.mu.Lock()
		if l.parked[rn.id] == p {
			delete(l.parked, rn.id)
		}
		l.mu.Unlock()
		return flow.LevelResult{TPPercent: pct, Err: rn.ctx.Err()}
	}
}

// verdict ends the level run r is parked in, which must be the one the
// model says runs next.
func (l *modelLife) verdict(tb testing.TB, r *mRun, ok bool) {
	l.mu.Lock()
	p, parked := l.parked[*r.id]
	delete(l.parked, *r.id)
	l.mu.Unlock()
	if !parked || p.pct != r.missing[0] {
		tb.Fatalf("run %s is parked in level %v (%v), the model runs level %v", *r.id, p.pct, parked, r.missing[0])
	}
	p.verdict <- ok
}

// quiet reports that no worker is between two observable points: every
// run that started is parked in a level or has retired its jobs, and
// every live run is parked or queued.
func (l *modelLife) quiet() bool {
	l.mu.Lock()
	parked := maps.Clone(l.parked)
	for rn, returned := range l.flows {
		if _, ok := parked[rn.id]; ok {
			continue
		}
		rn.events.mu.Lock()
		closed := rn.events.closed
		rn.events.mu.Unlock()
		if !returned || !closed {
			l.mu.Unlock()
			return false
		}
		delete(l.flows, rn)
	}
	l.mu.Unlock()
	l.s.mu.Lock()
	n, active := 0, len(l.s.active)
	for rn := range l.s.active {
		if _, ok := parked[rn.id]; ok {
			n++
		}
	}
	l.s.mu.Unlock()
	return n == len(parked) && active == n+l.s.queue.Len()
}

// diff compares every job's status with the model. A run id seen for the
// first time is learned; it must be one no other run has shown.
func (l *modelLife) diff(m *model) []string {
	type view struct {
		State               State
		Error               string
		Resumed             int64
		Coalesced, CacheHit bool
		Result              int  // GET /result's code, once terminal
		Body                bool // and a done job's result is the model's
	}
	get := func(path string, v any) int {
		rec := httptest.NewRecorder()
		l.s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), v) != nil {
			return 0
		}
		return rec.Code
	}
	var out []string
	learned := map[*string]string{}
	for _, j := range m.jobs {
		var st JobStatus
		if code := get("/v1/jobs/"+j.id, &st); code != http.StatusOK {
			out = append(out, fmt.Sprintf("job %s: GET = %d, model has it %s", j.id, code, j.state))
			continue
		}
		want := view{State: j.state, Error: j.errMsg, Resumed: j.resumed, Coalesced: j.coalesced, CacheHit: j.cacheHit}
		if j.record != nil {
			want.Resumed = j.record.resumed
		}
		switch j.state {
		case StateDone:
			want.Result, want.Body = http.StatusOK, true
		case StateFailed:
			want.Result = http.StatusInternalServerError
		case StateCanceled:
			want.Result = http.StatusGone
		}
		// A terminal job's result is read once per life: it cannot change.
		got := view{st.State, st.Error, st.ResumedLevels, st.Coalesced, st.CacheHit, want.Result, want.Body}
		if want.Result != 0 && !j.resultRead {
			var res JobResult
			got.Result = get("/v1/jobs/"+j.id+"/result", &res)
			got.Body = got.Result == http.StatusOK && j.holds(&res)
		}
		if got != want {
			out = append(out, fmt.Sprintf("job %s: server %+v, model %+v", j.id, got, want))
		}
		prev, ok := learned[j.runID]
		switch {
		case j.runID == nil && st.RunID == "", j.runID != nil && *j.runID != "" && st.RunID == *j.runID:
		case j.runID != nil && *j.runID == "" && (ok && st.RunID == prev || !ok && st.RunID != "" && !m.seen[st.RunID]):
			learned[j.runID] = st.RunID
		default:
			want := "none"
			if j.runID != nil {
				want = fmt.Sprintf("%q (empty: a new run's)", *j.runID)
			}
			out = append(out, fmt.Sprintf("job %s: run_id %q, model %s", j.id, st.RunID, want))
		}
	}
	l.s.mu.Lock()
	if n := len(l.s.jobs); n != len(m.jobs) {
		out = append(out, fmt.Sprintf("server holds %d jobs, model %d", n, len(m.jobs)))
	}
	l.s.mu.Unlock()
	if len(out) == 0 {
		for sym, id := range learned {
			*sym, m.seen[id] = id, true
		}
		for _, j := range m.jobs {
			j.resultRead = j.state.terminal()
		}
	}
	return out
}

// holds reports whether a done job's result is the model's: the stub's
// row for every level but the failed ones, which carry their error.
func (j *mJob) holds(res *JobResult) bool {
	var levels []LevelStatus
	var rows []flow.Metrics
	for _, pct := range j.body.levels {
		if slices.Contains(j.failed, pct) {
			levels = append(levels, LevelStatus{TPPercent: pct, Error: panicStageError(pct).Error()})
		} else {
			levels = append(levels, LevelStatus{TPPercent: pct, OK: true})
			rows = append(rows, stubMetrics(pct))
		}
	}
	return fmt.Sprint(res.Levels, res.Rows, res.Complete, res.CacheHit) == fmt.Sprint(levels, rows, j.failed == nil, j.cacheHit)
}

// check waits for the server to rest in the model's state, then holds it
// to the stats and data dir invariants.
func (l *modelLife) check(tb testing.TB, m *model, dir, step string) {
	tb.Helper()
	var diff []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		// Quiet on both sides of the comparison: the job states it read
		// are the ones the server rests in.
		if l.quiet() {
			if diff = l.diff(m); len(diff) == 0 && l.quiet() {
				break
			}
		}
		if time.Now().After(deadline) {
			tb.Fatalf("%s: the server never rested in the model's state:\n%s", step, strings.Join(diff, "\n"))
		}
	}
	st := l.s.Stats()
	if st.Rejected != m.rejected || st.JournalErrors != m.faults {
		tb.Fatalf("%s: rejected %d, write errors %d; the model has %d and %d", step, st.Rejected, st.JournalErrors, m.rejected, m.faults)
	}
	l.mu.Lock()
	sums := maps.Clone(l.sums)
	l.mu.Unlock()
	for name, got := range map[string]int64{
		"flow_runs": st.FlowRuns, "jobs_done": st.JobsDone, "jobs_failed": st.JobsFailed,
		"jobs_canceled": st.JobsCanceled, "rejected_429": st.Rejected, "levels_run": st.LevelsRun,
		"levels_resumed": st.LevelsResumed, "replayed_jobs": st.ReplayedJobs, "journal_errors": st.JournalErrors,
	} {
		if sums["service."+name] != got {
			tb.Fatalf("%s: /v1/stats %s = %d, the sink summed service.%s = %d", step, name, got, name, sums["service."+name])
		}
	}

	// At rest no write is in flight, so no .tmp file may be left.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp")); len(tmps) > 0 {
		tb.Fatalf("%s: .tmp files at rest: %v", step, tmps)
	}
	loaded, err := loadDataDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if got, want := fileView(loaded), m.fileView(); got != want {
		tb.Fatalf("%s: the data dir holds\n%s\nthe model's\n%s", step, got, want)
	}
	if m.inSync() {
		if files, snap := canonicalState(loaded), canonicalState(l.s.snapshotState()); files != snap {
			tb.Fatalf("%s: the data dir != snapshot of the server:\nfiles %s\nsnap  %s", step, files, snap)
		}
	}
}

// fileView names the files of a data dir: pending jobs, retired jobs
// with their states, checkpointed levels.
func fileView(st *dataState) string {
	var pending, retired []string
	for _, p := range st.Pending {
		pending = append(pending, p.JobID)
	}
	for _, r := range st.Retired {
		retired = append(retired, r.JobID+":"+string(r.State))
	}
	var levels []float64
	for _, l := range st.Levels {
		levels = append(levels, l.TPPercent)
	}
	sort.Strings(pending)
	sort.Strings(retired)
	sort.Float64s(levels)
	return fmt.Sprintf("pending %v\nretired %v\nlevels %v", pending, retired, levels)
}

// fileView is the model's data dir as fileView renders one.
func (m *model) fileView() string {
	st := &dataState{}
	for _, j := range m.pending {
		st.Pending = append(st.Pending, jobImage{JobID: j.id})
	}
	for _, j := range m.retired {
		st.Retired = append(st.Retired, jobImage{JobID: j.id, State: j.state})
	}
	for pct := range m.dlevels {
		st.Levels = append(st.Levels, levelImage{TPPercent: pct})
	}
	return fileView(st)
}

// canonicalState is a state's JSON with its jobs in id order and its
// levels in key order.
func canonicalState(st *dataState) string {
	sort.Slice(st.Pending, func(a, b int) bool { return st.Pending[a].JobID < st.Pending[b].JobID })
	sort.Slice(st.Retired, func(a, b int) bool { return st.Retired[a].JobID < st.Retired[b].JobID })
	sort.Slice(st.Levels, func(a, b int) bool { return st.Levels[a].Key < st.Levels[b].Key })
	for _, list := range []*[]jobImage{&st.Pending, &st.Retired} {
		if len(*list) == 0 {
			*list = nil // an empty list and none read alike
		}
	}
	if len(st.Levels) == 0 {
		st.Levels = nil
	}
	b, _ := json.Marshal(st)
	return string(b)
}

// ---------------------------------------------------------------------------
// The action sequence

func runModel(tb testing.TB, seed int64, dir string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &model{dlevels: map[float64]int{}, seen: map[string]bool{}}
	var hookMu sync.Mutex
	var armed string // the server's copy of m.fault
	hold := false
	hook := func(path string) error {
		hookMu.Lock()
		defer hookMu.Unlock()
		if hold || armed == "" || filepath.Base(filepath.Dir(path)) != armed {
			return nil
		}
		armed = ""
		return fmt.Errorf("injected %s write fault: %w", filepath.Base(path), syscall.ENOSPC)
	}
	arm := func(sub string, held bool) {
		hookMu.Lock()
		armed, hold = sub, held
		hookMu.Unlock()
		m.fault, m.hold = sub, held
	}

	var l *modelLife
	life := func(what string) {
		m.restart(1+rng.Intn(3), max(1+rng.Intn(3), len(m.pending)), rng.Intn(3) > 0)
		l = openLife(tb, dir, m, hook)
		// Replay is over. The runs it queued start side by side with the
		// armed fault held, so which write it hits does not depend on the
		// schedule.
		arm(m.fault, true)
		close(l.ready)
		m.advance()
		l.check(tb, m, dir, what)
		arm(m.fault, false)
	}
	life("open")
	tb.Cleanup(func() {
		// A failed seed leaves its server up; one whose worker is stuck
		// must not hang the run and hide the failure.
		killed := make(chan struct{})
		go func() { l.s.Kill(); close(killed) }()
		select {
		case <-killed:
		case <-time.After(5 * time.Second):
			tb.Error("Kill never returned: a worker is stuck")
		}
	})

	jobs := 0
	submit := func(b *mBody) string {
		jobs++
		id := fmt.Sprintf("j%d", jobs)
		body, _ := json.Marshal(JobRequest{
			Tenant: "acme", Circuit: CircuitSpec{Bench: testBench, Name: "tiny"}, TPLevels: b.levels,
			Flow: FlowConfig{SkipATPG: true},
		})
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body)))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		l.s.ServeHTTP(rec, req)
		if want := m.submit(id, b); rec.Code != want {
			tb.Fatalf("submit %s %s = %d, the model says %d", id, b.key(), rec.Code, want)
		}
		m.advance()
		return fmt.Sprintf("submit %s %s", id, b.key())
	}
	fresh := func() *mBody {
		b := &mBody{}
		for _, p := range rng.Perm(6)[:1+rng.Intn(3)] {
			b.levels = append(b.levels, float64(p+1))
		}
		sort.Float64s(b.levels)
		if rng.Intn(8) == 0 {
			b.levels = []float64{modelFailLevel}
		}
		return b
	}
	pick := func(ok func(*mJob) bool) *mJob {
		var js []*mJob
		for _, j := range m.jobs {
			if ok(j) {
				js = append(js, j)
			}
		}
		if len(js) == 0 {
			return nil
		}
		return js[rng.Intn(len(js))]
	}
	live := func(j *mJob) bool { return !j.state.terminal() }
	over := func(j *mJob) bool { return j.state.terminal() }
	failed := func(j *mJob) bool { return j.state.terminal() && (j.state != StateDone || j.failed != nil) }

	for step := 0; step < 24; step++ {
		var what string
		switch x := rng.Intn(100); {
		case x < 20:
			what = submit(fresh())
		case x < 40: // an identical twin of a live job, or a repeat of a finished body (failed ones first)
			j := pick(live)
			if x >= 30 {
				if j = pick(failed); j == nil || rng.Intn(2) == 0 {
					j = pick(over)
				}
			}
			if j == nil {
				continue
			}
			what = submit(j.body)
		case x < 46: // fresh too: its own range keeps each seed's draws in place
			what = submit(fresh())
		case x < 54:
			j := pick(func(*mJob) bool { return true })
			if j == nil {
				continue
			}
			rec := httptest.NewRecorder()
			l.s.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/jobs/"+j.id, nil))
			if rec.Code != http.StatusOK {
				tb.Fatalf("DELETE %s = %d", j.id, rec.Code)
			}
			m.retire([]*mJob{j}, StateCanceled, canceledByClient, false, nil)
			m.advance()
			what = "DELETE " + j.id
		case x < 85:
			if len(m.running) == 0 {
				continue
			}
			r, ok := m.running[rng.Intn(len(m.running))], rng.Intn(4) > 0
			what = fmt.Sprintf("level %v of run %s ok=%v", r.missing[0], *r.id, ok)
			l.verdict(tb, r, ok)
			m.verdict(r, ok)
			m.advance()
		case x < 92:
			if m.fault != "" {
				continue
			}
			arm([]string{jobsDir, levelsDir}[rng.Intn(2)], false)
			what = "arm " + m.fault + " write fault"
		default:
			l.s.Kill()
			what = "kill"
			if rng.Intn(2) == 0 {
				what += ", torn " + tearTmp(tb, dir, rng.Int63())
			}
			life(fmt.Sprintf("step %d (%s)", step, what))
			continue
		}
		l.check(tb, m, dir, fmt.Sprintf("step %d (%s)", step, what))
	}

	// The drain cancels running runs side by side, so their retirements
	// write in any order: no fault may pick one of them.
	arm("", false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l.s.Shutdown(ctx)
	m.drain()
	l.check(tb, m, dir, "drain")
	if st, err := loadDataDir(dir); err != nil || len(st.Pending) > 0 && !m.faulted {
		tb.Errorf("seed %d: the drained data dir still owes runs (%v): %s", seed, err, fileView(st))
	}
}

// tearTmp leaves what a crash mid-write leaves: a .tmp file beside a
// job or level file, holding a seed-sized prefix of one. It returns the
// file's name.
func tearTmp(tb testing.TB, dir string, seed int64) string {
	tb.Helper()
	sub := []string{jobsDir, levelsDir}[seed&1]
	names, _ := filepath.Glob(filepath.Join(dir, sub, "*.json"))
	data := []byte(`{"job_id":"j0","state":"do`)
	name := "j0.json"
	if len(names) > 0 {
		path := names[int(seed>>1)%len(names)]
		full, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		name, data = filepath.Base(path), full[:int(seed>>8)%len(full)]
	}
	tmp := filepath.Join(sub, fmt.Sprintf("%s.%d.tmp", name, seed%1000))
	if err := os.WriteFile(filepath.Join(dir, tmp), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return tmp
}

// FuzzFoldRecords feeds arbitrary data dirs — job files, level files and
// a parent build's journal records, all bytes read back from disk — to
// loadDataDir, which must not fail or panic, must leave no file outside
// jobs/ and levels/ and no journal, and must leave files that read back
// as the state it returned. The seeds are the data dirs runModel wrote
// and a parent journal of every record type.
func FuzzFoldRecords(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		dir := f.TempDir()
		runModel(f, seed, dir)
		var all []byte
		for kind, sub := range []string{jobsDir, levelsDir} {
			names, _ := filepath.Glob(filepath.Join(dir, sub, "*.json"))
			for _, name := range names {
				data, err := os.ReadFile(name)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(encodeEntry(nil, byte(kind), data))
				all = encodeEntry(all, byte(kind), data)
			}
		}
		f.Add(all)
	}
	var wal []byte
	for _, r := range []struct {
		typ  journal.Type
		data string
	}{
		{journal.TypeAccepted, `{"job_id":"p1","run_id":"r1","tenant":"acme","name":"tiny","bench":"INPUT(a)\n","tp_levels":[1],"flow":{"skip_atpg":true},"created":"2026-08-08T13:07:25Z"}`},
		{journal.TypeAccepted, `{"job_id":"..","tenant":"acme","name":"tiny","tp_levels":[2],"created":"2026-08-08T13:07:26Z"}`},
		{journal.TypeLevelDone, `{"key":"base/tp1","tp_percent":1,"metrics":{"Circuit":"tiny","NumTP":2}}`},
		{journal.TypeRetired, `{"job_ids":["p1"],"run_id":"r1","state":"done","cache_key":"k","cacheable":true,"result":{"complete":true},"finished":"2026-08-08T13:07:27Z"}`},
		{journal.TypeCanceled, `{"job_id":"..","finished":"2026-08-08T13:07:28Z"}`},
		{journal.TypeSnapshot, `{"pending":[{"job_id":".","tp_levels":[3]}],"retired":[{"job_id":"d","state":"failed","error":"boom"}],"levels":[{"key":"../x","tp_percent":3}]}`},
	} {
		entry := encodeEntry(nil, 2+3*byte(r.typ), []byte(r.data))
		f.Add(entry)
		wal = append(wal, entry...)
	}
	f.Add(wal)

	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "data")
		for _, sub := range []string{jobsDir, levelsDir} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		// An entry is a kind byte, a uvarint length and a payload; a length
		// that does not fit gives the last entry the rest. Kind%3 is a job
		// file, a level file, or a journal record of type kind/3. A file
		// whose payload decodes to an id is named for it, as the server
		// names its files.
		var wal *journal.Journal
		for i := 0; len(data) > 0; i++ {
			n, k := binary.Uvarint(data[1:])
			if k <= 0 || n > uint64(len(data)-1-k) {
				n, k = uint64(len(data)-1), 0
			}
			kind, payload := data[0], data[1+k:1+k+int(n)]
			data = data[1+k+int(n):]
			var id string
			switch kind % 3 {
			case 0:
				var img jobImage
				json.Unmarshal(payload, &img)
				id = img.JobID
			case 1:
				var img levelImage
				json.Unmarshal(payload, &img)
				id = img.Key
			case 2:
				if wal == nil {
					var err error
					if wal, _, err = journal.Open(dir, journal.Options{NoSync: true}); err != nil {
						t.Fatal(err)
					}
				}
				wal.Append(journal.Type(kind/3), payload)
				continue
			}
			name := fmt.Sprintf("f%d.json", i)
			if id != "" && len(fileName(id)) <= 255 {
				name = fileName(id)
			}
			if err := os.WriteFile(filepath.Join(dir, []string{jobsDir, levelsDir}[kind%3], name), payload, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if wal != nil {
			wal.Close()
		}

		st, err := loadDataDir(dir)
		if err != nil {
			t.Fatalf("loading a data dir: %v", err)
		}
		for path, want := range map[string][]string{root: {"data"}, dir: {jobsDir, levelsDir}} {
			entries, err := os.ReadDir(path)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s holds %v after the load, want %v", path, got, want)
			}
		}
		again, err := loadDataDir(dir)
		if err != nil {
			t.Fatalf("reloading a data dir: %v", err)
		}
		if a, b := canonicalState(st), canonicalState(again); a != b {
			t.Fatalf("the files do not read back as the state loaded:\nfirst  %s\nsecond %s", a, b)
		}
	})
}

func encodeEntry(b []byte, kind byte, payload []byte) []byte {
	b = binary.AppendUvarint(append(b, kind), uint64(len(payload)))
	return append(b, payload...)
}
