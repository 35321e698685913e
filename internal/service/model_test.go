package service

// TestChaosRecoveryInvariants is the crash-recovery test. It runs random actions,
// drawn from a seed, against a real durable Server whose runLevel parks
// each level until the test finishes or fails it: submit a fresh body, an
// identical twin, a repeat of a finished body or a budgeted one; DELETE a
// job; finish or fail a parked level; compact the journal; arm one
// journal fault; Kill, maybe tear the journal's tail, and reopen; drain at
// the end. A reference model of DESIGN.md §13's transition table predicts
// every job's state, error, run id, resumed levels, coalesced/cache-hit
// flags and result, and the server's queue, checkpoints, cache and
// journal. After every step the test waits for the server to rest and
// asserts:
//
//  1. every GET /v1/jobs/{id} is the model's and the server knows no other
//     job, so a terminal job never changes and a restart loses exactly the
//     jobs whose accepted record a fault dropped (none on an intact one);
//  2. foldRecords(journal.Read(dir)) equals snapshotState() unless an
//     append fault lost a record since the last compaction;
//  3. every /v1/stats counter equals the service.* counter a sink in
//     Options.Sinks summed;
//  4. after the drain no job has two terminal records and none is owed a
//     run, and at the end the goroutine count is back to its baseline.
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
	budget bool      // atpg_budget_ms: never cached, coalesced or checkpointed
}

func (b *mBody) key() string     { return fmt.Sprint(b.levels, b.budget) }
func (b *mBody) cacheable() bool { return !b.budget }

// mJob is what GET /v1/jobs/{id} must report for one job.
type mJob struct {
	id        string
	body      *mBody
	state     State
	errMsg    string
	runID     *string // the run id it reports: nil for none, "" until first seen
	minted    *string // the run id its accepted record carries
	record    *mRun   // the run whose resumed levels it reports
	run       *mRun   // the live run it waits on
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
	levels   map[float64]bool // the checkpoint store
	workers  int
	depth    int
	bigCache bool  // CacheBytes holds every result (else none)
	rejected int64 // 429s and journal errors since this server opened
	faults   int64

	// The journal as foldRecords reads it back.
	pending  []*mJob
	retired  []mJob
	dlevels  map[float64]bool
	fault    journal.Op // armed and not fired yet
	hold     bool       // the armed fault does not fire for now
	diverged bool       // an append fault lost a record since the last compaction
	seen     map[string]bool
}

// fire reports whether the armed fault fires on op.
func (m *model) fire(op journal.Op) bool {
	if m.hold || m.fault != op {
		return false
	}
	m.fault = ""
	m.faults++
	return true
}

// record applies one journal append, unless the armed fault eats it. An
// fsync fault reports a failure of a record that was written.
func (m *model) record(apply func()) {
	if m.fire(journal.OpAppend) {
		m.diverged = true
		return
	}
	m.fire(journal.OpFsync)
	apply()
}

func (m *model) submit(id string, b *mBody) int {
	if b.cacheable() && m.cached[b.key()] {
		m.jobs = append(m.jobs, &mJob{id: id, body: b, state: StateDone, cacheHit: true})
		return http.StatusOK
	}
	if len(m.queue) >= m.depth && m.inflight[b.key()] == nil {
		m.rejected++
		return http.StatusTooManyRequests
	}
	j := &mJob{id: id, body: b, state: StateQueued, minted: new(string), journaled: true}
	m.jobs = append(m.jobs, j)
	m.record(func() { m.pending = append(m.pending, j) })
	m.place(j)
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
	r := &mRun{id: j.minted, body: j.body, jobs: []*mJob{j}}
	j.run, j.record, j.runID = r, r, r.id
	m.queue = append(m.queue, r)
	if j.body.cacheable() {
		m.inflight[j.body.key()] = r
	}
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
			if r.body.cacheable() && m.levels[pct] {
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
	} else if r.body.cacheable() {
		m.levels[pct] = true
		m.record(func() { m.dlevels[pct] = true })
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
	if state == StateDone && r.failed == nil && r.body.cacheable() && m.bigCache {
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
// verdict, and a run that loses its last waiter is dropped.
func (m *model) retire(jobs []*mJob, state State, msg string, cacheHit bool, failed []float64) {
	var journaled []*mJob
	for _, j := range jobs {
		if j.state.terminal() {
			continue
		}
		j.state, j.errMsg, j.cacheHit, j.failed = state, msg, cacheHit, failed
		if r := j.run; r != nil && !r.done {
			if r.jobs = slices.DeleteFunc(r.jobs, func(o *mJob) bool { return o == j }); len(r.jobs) == 0 {
				m.drop(r)
			}
		}
		j.run = nil
		if j.journaled {
			journaled = append(journaled, j)
		}
	}
	if len(journaled) > 0 {
		m.record(func() {
			for _, j := range journaled {
				if i := slices.Index(m.pending, j); i >= 0 {
					m.pending = slices.Delete(m.pending, i, i+1)
					m.retired = append(m.retired, *j)
				}
			}
		})
	}
}

// compact replaces the journal with a snapshot of the server.
func (m *model) compact() {
	if m.fire(journal.OpSnapshot) {
		return
	}
	m.pending, m.retired, m.dlevels, m.diverged = nil, nil, maps.Clone(m.levels), false
	for _, j := range m.jobs {
		if j.journaled && j.state.terminal() {
			m.retired = append(m.retired, *j)
		} else if j.journaled {
			m.pending = append(m.pending, j)
		}
	}
}

// restart is a new server's replay of the journal: retired jobs come back
// as they were (their cached results with them), pending ones are
// re-admitted in order, and the fold becomes the startup snapshot.
func (m *model) restart(workers, depth int, bigCache bool) {
	*m = model{
		inflight: map[string]*mRun{}, cached: map[string]bool{}, levels: maps.Clone(m.dlevels),
		workers: workers, depth: depth, bigCache: bigCache, pending: m.pending, retired: m.retired,
		dlevels: m.dlevels, fault: m.fault, diverged: m.diverged, seen: m.seen,
	}
	for _, r := range m.retired {
		m.jobs = append(m.jobs, &mJob{
			id: r.id, body: r.body, state: r.state, errMsg: r.errMsg, runID: r.runID, failed: r.failed, journaled: true,
		})
		if bigCache && r.state == StateDone && r.failed == nil && r.body.cacheable() {
			m.cached[r.body.key()] = true
		}
	}
	for i, p := range m.pending {
		m.pending[i] = &mJob{id: p.id, body: p.body, state: StateQueued, minted: p.minted, journaled: true}
		m.jobs = append(m.jobs, m.pending[i])
	}
	for _, j := range slices.Clone(m.pending) {
		if j.body.cacheable() && m.cached[j.body.key()] {
			m.retire([]*mJob{j}, StateDone, "", true, nil)
		} else {
			m.place(j)
		}
	}
	m.compact()
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

func openLife(tb testing.TB, dir string, m *model, noSync bool, hook func(journal.Op) error) *modelLife {
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
		DataDir: dir, journalNoSync: noSync, journalHook: hook, replayGate: gate,
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
		want := view{State: j.state, Error: j.errMsg, Coalesced: j.coalesced, CacheHit: j.cacheHit}
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
// to the stats and journal invariants.
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
	l.s.jgate.Lock()
	l.s.jgate.Unlock()

	st := l.s.Stats()
	if st.Rejected != m.rejected || st.JournalErrors != m.faults {
		tb.Fatalf("%s: rejected %d, journal errors %d; the model has %d and %d", step, st.Rejected, st.JournalErrors, m.rejected, m.faults)
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

	if !m.diverged {
		recs, err := journal.Read(dir)
		if err != nil {
			tb.Fatal(err)
		}
		if fold, snap := canonicalState(foldRecords(recs)), canonicalState(l.s.snapshotState()); fold != snap {
			tb.Fatalf("%s: fold of the journal != snapshot of the server:\nfold %s\nsnap %s", step, fold, snap)
		}
	}
}

// canonicalState is a state's JSON with its jobs in id order. A canceled
// record does not carry the job's cache key, so a job its client canceled
// is compared without it.
func canonicalState(st *snapState) string {
	sort.Slice(st.Pending, func(a, b int) bool { return st.Pending[a].JobID < st.Pending[b].JobID })
	sort.Slice(st.Retired, func(a, b int) bool { return st.Retired[a].JobID < st.Retired[b].JobID })
	for i := range st.Retired {
		if r := &st.Retired[i]; r.Error == canceledByClient {
			r.CacheKey, r.Cacheable = "", false
		}
	}
	if len(st.Pending) == 0 {
		st.Pending = nil // an empty list and none fold alike
	}
	b, _ := json.Marshal(st)
	return string(b)
}

// ---------------------------------------------------------------------------
// The action sequence

func runModel(tb testing.TB, seed int64, dir string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &model{dlevels: map[float64]bool{}, seen: map[string]bool{}}
	var hookMu sync.Mutex
	var armed journal.Op // the server's copy of m.fault
	hold := false
	hook := func(op journal.Op) error {
		hookMu.Lock()
		defer hookMu.Unlock()
		if hold || op != armed {
			return nil
		}
		armed = ""
		return errors.New("injected " + string(op) + " fault")
	}
	arm := func(op journal.Op, held bool) {
		hookMu.Lock()
		armed, hold = op, held
		hookMu.Unlock()
		m.fault, m.hold = op, held
	}

	var l *modelLife
	var noSync bool // this life skips fsync, so an fsync fault cannot fire
	life := func(what string) {
		noSync = rng.Intn(4) > 0 && m.fault != journal.OpFsync
		m.restart(1+rng.Intn(3), max(1+rng.Intn(3), len(m.pending)), rng.Intn(3) > 0)
		l = openLife(tb, dir, m, noSync, hook)
		// Replay is over. The runs it queued start side by side with the
		// armed fault held, so which append it hits does not depend on
		// the schedule.
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
		cfg := FlowConfig{SkipATPG: true}
		if b.budget {
			cfg.ATPGBudgetMS = 600000
		}
		body, _ := json.Marshal(JobRequest{
			Tenant: "acme", Circuit: CircuitSpec{Bench: testBench, Name: "tiny"}, TPLevels: b.levels, Flow: cfg,
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
	fresh := func(budget bool) *mBody {
		b := &mBody{budget: budget}
		for _, p := range rng.Perm(6)[:1+rng.Intn(3)] {
			b.levels = append(b.levels, float64(p+1))
		}
		sort.Float64s(b.levels)
		if !budget && rng.Intn(8) == 0 {
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
			what = submit(fresh(false))
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
		case x < 46:
			what = submit(fresh(true))
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
		case x < 80:
			if len(m.running) == 0 {
				continue
			}
			r, ok := m.running[rng.Intn(len(m.running))], rng.Intn(4) > 0
			what = fmt.Sprintf("level %v of run %s ok=%v", r.missing[0], *r.id, ok)
			l.verdict(tb, r, ok)
			m.verdict(r, ok)
			m.advance()
		case x < 85:
			l.s.compactJournal()
			m.compact()
			what = "compact"
		case x < 92:
			ops := []journal.Op{journal.OpAppend, journal.OpSnapshot, journal.OpFsync}
			if noSync {
				ops = ops[:2]
			}
			if m.fault != "" {
				continue
			}
			arm(ops[rng.Intn(len(ops))], false)
			what = "arm " + string(m.fault) + " fault"
		default:
			l.s.Kill()
			what = "kill"
			if rng.Intn(2) == 0 {
				appendGarbageTail(tb, dir, rng.Int63())
				what += ", torn tail"
			}
			life(fmt.Sprintf("step %d (%s)", step, what))
			continue
		}
		l.check(tb, m, dir, fmt.Sprintf("step %d (%s)", step, what))
	}

	// The drain cancels running runs side by side, so their retirements
	// journal in any order: no fault may pick one of them.
	arm("", false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l.s.Shutdown(ctx)
	m.drain()
	l.check(tb, m, dir, "drain")
	checkJournalInvariants(tb, dir, seed, m.diverged)
}

// appendGarbageTail writes seed-derived junk to the end of the newest
// segment: the torn frame a crash leaves behind.
func appendGarbageTail(tb testing.TB, dir string, seed int64) {
	tb.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) == 0 {
		tb.Fatal("no segment to tear")
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	junk := make([]byte, 1+int(seed%37))
	for i := range junk {
		junk[i] = byte(seed>>(uint(i)%8) ^ int64(i)*31)
	}
	if _, err := f.Write(junk); err != nil {
		tb.Fatal(err)
	}
}

// checkJournalInvariants walks the record stream (a torn tail must not
// stop the read): at most one terminal record per job ever, none for an
// unknown job, and, after a final drain, no job owed a run — the last two
// only when no append was faulted.
func checkJournalInvariants(tb testing.TB, dir string, seed int64, journalFaults bool) {
	tb.Helper()
	recs, err := journal.Read(dir)
	if err != nil {
		tb.Fatalf("seed %d: reading journal after recovery: %v", seed, err)
	}
	pending, retired := map[string]bool{}, map[string]bool{}
	terminate := func(id string) {
		if retired[id] {
			tb.Errorf("seed %d: job %s retired twice", seed, id)
		}
		if !pending[id] && !journalFaults {
			tb.Errorf("seed %d: terminal record for unknown job %s", seed, id)
		}
		delete(pending, id)
		retired[id] = true
	}
	for _, r := range recs {
		var snap snapState
		var acc recAccepted
		var ret recRetired
		var can recCanceled
		switch {
		case r.Type == journal.TypeSnapshot && json.Unmarshal(r.Data, &snap) == nil:
			pending, retired = map[string]bool{}, map[string]bool{}
			for _, p := range snap.Pending {
				pending[p.JobID] = true
			}
			for _, rj := range snap.Retired {
				retired[rj.JobID] = true
			}
		case r.Type == journal.TypeAccepted && json.Unmarshal(r.Data, &acc) == nil:
			pending[acc.JobID] = true
		case r.Type == journal.TypeRetired && json.Unmarshal(r.Data, &ret) == nil:
			for _, id := range ret.JobIDs {
				terminate(id)
			}
		case r.Type == journal.TypeCanceled && json.Unmarshal(r.Data, &can) == nil:
			terminate(can.JobID)
		}
	}
	if fold := foldRecords(recs); (len(pending) > 0 || len(fold.Pending) > 0) && !journalFaults {
		tb.Errorf("seed %d: the drained journal still owes runs: %v, fold %d pending", seed, pending, len(fold.Pending))
	}
}

// FuzzFoldRecords feeds arbitrary records — journal segments are bytes
// read back from disk — to foldRecords, which must not panic, and checks
// the property compaction relies on: one snapshot record holding a fold
// folds to that same state. The seeds are journals runModel wrote.
func FuzzFoldRecords(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		dir := f.TempDir()
		runModel(f, seed, dir)
		recs, err := journal.Read(dir)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeRecords(recs...))
		for _, r := range recs {
			f.Add(encodeRecords(r))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []journal.Record
		// The framing is type byte, uvarint length, payload; a length that
		// does not fit gives the last record the rest.
		for len(data) > 0 {
			n, k := binary.Uvarint(data[1:])
			if k <= 0 || n > uint64(len(data)-1-k) {
				n, k = uint64(len(data)-1), 0
			}
			recs = append(recs, journal.Record{Type: journal.Type(data[0]), Data: data[1+k : 1+k+int(n)]})
			data = data[1+k+int(n):]
		}
		want, err := json.Marshal(foldRecords(recs))
		if err != nil {
			t.Fatalf("marshaling a fold: %v", err)
		}
		got, err := json.Marshal(foldRecords([]journal.Record{{Type: journal.TypeSnapshot, Data: want}}))
		if err != nil || string(got) != string(want) {
			t.Fatalf("a snapshot of a fold folds to another state (%v):\nfold %s\nsnap %s", err, want, got)
		}
	})
}

func encodeRecords(recs ...journal.Record) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.AppendUvarint(append(b, byte(r.Type)), uint64(len(r.Data)))
		b = append(b, r.Data...)
	}
	return b
}
