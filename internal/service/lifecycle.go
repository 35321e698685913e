package service

// The run lifecycle. A job moves queued → running → done | failed |
// canceled, and every move that must survive a crash is one of three
// transitions, each a single function that changes the state under mu
// and writes the data dir file that records it (durable.go):
//
//	admit      — a job enters: its file, then a place (an in-flight
//	             twin's run, the result cache, or a new run).
//	checkpoint — one level of a run completed: its level file.
//	retire     — jobs reach a terminal state: their files take it.
//
// Nothing else assigns a terminal state, writes these files, or bumps
// the jobs_done/failed/canceled counters.

import (
	"context"
	"errors"
	"slices"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
)

// admission is how admit placed a job, or why it could not.
type admission int

const (
	admitQueued    admission = iota // a new run was queued for the job
	admitCoalesced                  // attached to an identical in-flight run
	admitAnswered                   // answered from the result cache; already done
	admitQueueFull                  // refused: the queue is full
	admitDraining                   // refused: the queue is closed
)

// admit is the accepted transition: it gives the job described by img a
// place in the server, or refuses it. replay says img was read back from
// the data dir, so its file is not written again, the job enters under
// its filed ids, and a refusal must still leave the job (whose client
// has held its id since before the crash) with a queryable verdict.
func (s *Server) admit(comp *compiled, img *jobImage, replay bool) (*Job, admission) {
	job := &Job{
		ID: img.JobID, Tenant: comp.tenant, Key: comp.key, Levels: comp.levels,
		Circuit: comp.src.name, digest: comp.digest, state: StateQueued, created: img.Created,
		cacheable: comp.cacheable, persisted: replay, accepted: img,
	}
	answer := func(res *encodedResult) (*Job, admission) {
		s.retire([]*Job{job}, outcome{state: StateDone, result: res, cacheHit: true})
		// This body compiled to a cached key: the next identical body
		// resolves without being decoded.
		s.cache.Alias(job)
		s.opt.Log.Info("job answered from cache",
			"job_id", job.ID, "tenant", job.Tenant, "circuit", job.Circuit, "key", job.Key)
		return job, admitAnswered
	}

	if !replay {
		// Content-addressed fast path: an identical finished sweep serves
		// from the cache without touching the queue or the data dir — it
		// cost no flow, so there is nothing to recover. The request index
		// may have found the result already (comp.hit).
		if comp.cacheable {
			res, ok := comp.hit, comp.hit != nil
			if !ok {
				res, ok = s.cache.Get(comp.key)
			}
			if ok {
				s.mu.Lock()
				s.rememberJobLocked(job)
				s.mu.Unlock()
				return answer(res)
			}
		}
		// Fast-fail an obviously full queue before paying a file write
		// for a job that will bounce with 429 anyway (the race with Push
		// below is compensated by removing the file).
		s.mu.Lock()
		_, coalescible := s.inflight[comp.key]
		s.mu.Unlock()
		if s.queue.Len() >= s.opt.QueueDepth && !(comp.cacheable && coalescible) {
			return job, admitQueueFull
		}
	}

	// The job's file is written BEFORE the job is reachable, so it
	// precedes its retired image, and names the run the job will wait on
	// (a live twin's, else a new one's): if that changed while the file
	// was written, it is written again. Replay keeps the filed run id.
	var live, rn *run
	var cached *encodedResult
	var refused error
	borrowed := false // img.RunID is a live run's
	for {
		s.mu.Lock()
		live, cached = nil, nil
		if comp.cacheable {
			// Singleflight: an identical run in flight absorbs this
			// submission. Failing that, look in the cache again: finishRun
			// publishes to it before it drops the inflight entry, so an
			// identical submission never pays for a second flow.
			if live = s.inflight[comp.key]; live == nil {
				cached, _ = s.cache.Get(comp.key)
			}
		}
		want := img.RunID
		if live != nil {
			want = live.id
		} else if want == "" || borrowed {
			want = s.newRunID()
		}
		if replay || cached != nil || s.opt.DataDir == "" || job.persisted && want == img.RunID {
			img.RunID = want
			break
		}
		s.mu.Unlock()
		img.RunID, borrowed, job.persisted = want, live != nil, true
		s.writeImage(jobsDir, img.JobID, img)
	}
	switch {
	case live != nil:
		job.run, job.record, job.runID, job.coalesce = live, live.runRecord, live.id, true
		if live.startedRunning {
			job.state = StateRunning
		}
		live.jobs = append(live.jobs, job)
	case cached == nil:
		rn = s.newRun(comp, img, job)
		if refused = s.queue.Push(rn); refused == nil {
			if comp.cacheable {
				s.inflight[comp.key] = rn
			}
			s.active[rn] = true
		}
	}
	// A job the queue refused stays unreachable (its client reads 429 or
	// 503) — unless it is a replayed one, whose client has its id already.
	if refused == nil || replay {
		s.rememberJobLocked(job)
	}
	s.mu.Unlock()

	switch {
	case refused != nil:
		// The job never ran: retiring it removes a fresh job's file and
		// gives a replayed one its verdict.
		msg := refused.Error()
		if replay {
			msg = "replay: " + msg
		}
		s.retire([]*Job{job}, outcome{state: StateCanceled, errMsg: msg})
		if errors.Is(refused, ErrQueueFull) {
			return job, admitQueueFull
		}
		return job, admitDraining
	case cached != nil:
		// Retiring the job retires its file, if it has one, so replay
		// does not resurrect an already-answered job.
		return answer(cached)
	case live != nil:
		s.emitMetric(map[string]int64{"service.coalesced_jobs": 1}, nil, nil)
		s.opt.Log.Info("job coalesced onto in-flight run",
			"job_id", job.ID, "run_id", job.runID, "tenant", job.Tenant, "circuit", job.Circuit)
		return job, admitCoalesced
	}
	depth := s.queue.Len()
	s.emitMetric(map[string]int64{"service.jobs_submitted": 1},
		map[string]float64{"service.queue_depth": float64(depth)}, nil)
	// The run may have finished already, and retire drops job.run.
	rn.log.Info("job accepted", "circuit", job.Circuit, "levels", len(job.Levels),
		"queue_depth", depth)
	return job, admitQueued
}

// newRun builds the run a freshly admitted job is the first waiter of,
// under the run id its image carries.
func (s *Server) newRun(comp *compiled, img *jobImage, job *Job) *run {
	ctx, cancel := context.WithCancel(context.Background())
	events := newBroadcaster()
	rn := &run{
		runRecord: &runRecord{id: img.RunID, retained: events},
		events:    events,
		key:       comp.key,
		baseKey:   comp.baseKey,
		circHash:  comp.circHash,
		cfgHash:   comp.cfgHash,
		cacheable: comp.cacheable,
		tenant:    comp.tenant,
		primary:   job.ID,
		circuit:   comp.src.name,
		designN:   comp.design,
		cfg:       comp.cfg,
		levels:    comp.levels,
		workers:   comp.workers,
		budgetMS:  comp.budgetMS,
		ctx:       ctx,
		cancel:    cancel,
		enqueued:  time.Now(),
		jobs:      []*Job{job},
	}
	rn.log = s.opt.Log.With("job_id", job.ID, "run_id", rn.id, "tenant", rn.tenant)
	job.run, job.record, job.runID = rn, rn.runRecord, rn.id
	return rn
}

// dropRunLocked takes a run out of the server's indexes: no submission
// coalesces onto it any more and Shutdown no longer has to cancel it.
func (s *Server) dropRunLocked(rn *run) {
	rn.done = true
	if s.inflight[rn.key] == rn {
		delete(s.inflight, rn.key)
	}
	delete(s.active, rn)
}

// ---------------------------------------------------------------------------
// Worker pool

func (s *Server) worker() {
	defer s.workersWG.Done()
	for {
		rn, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.execute(rn)
	}
}

// execute runs one dequeued run to its terminal state.
func (s *Server) execute(rn *run) {
	now := time.Now()
	s.mu.Lock()
	if len(rn.jobs) == 0 {
		// Every submitter cancelled while the run was queued; retire
		// already dropped it.
		s.mu.Unlock()
		return
	}
	rn.startedRunning = true
	rn.started = now
	for _, j := range rn.jobs {
		j.state = StateRunning
		j.started = now
	}
	s.mu.Unlock()

	wait := now.Sub(rn.enqueued)
	s.running.Add(1)
	s.flowRuns.Add(1)
	s.emitRunMetric(rn,
		map[string]int64{"service.flow_runs": 1},
		map[string]float64{
			"service.queue_depth": float64(s.queue.Len()),
			"service.running":     float64(s.running.Load()),
		},
		map[string]telemetry.HistData{"service.queue_wait_ns": telemetry.Observation(int64(wait))},
	)
	rn.log.Info("run started", "queue_wait_ms", wait.Milliseconds(), "levels", len(rn.levels))

	res, err := s.runFlowProfiled(rn)
	s.running.Add(-1)
	s.finishRun(rn, res, err)
}

// sweepRun is the production runFlow: the supervised partial sweep with
// the run's broadcaster (SSE) and the server's sinks attached,
// executed level by level through attemptLevel, which checkpoints.
func (s *Server) sweepRun(rn *run) (*JobResult, error) {
	sinks := append([]telemetry.Sink{rn.events}, s.opt.Sinks...)
	sinks = append(sinks, s.opt.ExtraSinks...)

	cfg := rn.cfg
	// Every span this run emits — and therefore every SSE frame, every
	// /metrics fold, and every flight-recorder entry — carries the run's
	// correlation identity.
	cfg.Telemetry = telemetry.New(sinks...).WithAttrs(rn.attrs())
	cfg.Workers = rn.workers
	if cfg.Workers == 0 {
		cfg.Workers = s.opt.FlowWorkers
	}
	cfg.Deadline = atpgDeadline(rn.budgetMS, time.Now())

	start := time.Now()
	levels, err := s.runLevels(rn, cfg)
	if err != nil {
		return nil, err
	}
	if cerr := rn.ctx.Err(); cerr != nil {
		return nil, cerr
	}

	res := &JobResult{
		Circuit:   rn.circuit,
		TPLevels:  rn.levels,
		ElapsedMS: time.Since(start).Milliseconds(),
		Complete:  true,
	}
	for _, lr := range levels {
		ls := LevelStatus{TPPercent: lr.TPPercent}
		if lr.Err != nil {
			ls.Error = lr.Err.Error()
			res.Complete = false
		} else {
			ls.OK = true
			ls.Truncated = lr.Metrics.Truncated
		}
		res.Levels = append(res.Levels, ls)
	}
	res.Rows = flow.CompletedMetrics(levels)
	if len(res.Rows) > 0 {
		res.Table1 = flow.FormatTable1(res.Rows)
		res.Table2 = flow.FormatTable2(res.Rows)
		res.Table3 = flow.FormatTable3(res.Rows)
	}
	return res, nil
}

// runLevels is the resumable sweep: levels with a durable checkpoint
// are answered from the store without running a flow, the rest go to
// flow.SweepLevels once each, and every freshly completed level is
// checkpointed the moment it finishes — so a crash loses at most the
// levels still in flight. The stitched result is bit-identical to an
// uninterrupted sweep because checkpointed Metrics round-trip exactly
// through JSON.
func (s *Server) runLevels(rn *run, cfg flow.Config) ([]flow.LevelResult, error) {
	out := make([]flow.LevelResult, len(rn.levels))
	var missing []int
	var missingPct []float64
	s.mu.Lock()
	for i, pct := range rn.levels {
		out[i].TPPercent = pct
		// Budget-truncated sweeps depend on wall-clock speed: they are
		// neither cached nor checkpointed nor resumed.
		if rn.cacheable {
			if m, ok := s.checkpoints.get(levelKey(rn.baseKey, pct)); ok {
				out[i].Metrics = m
				continue
			}
		}
		missing = append(missing, i)
		missingPct = append(missingPct, pct)
	}
	s.mu.Unlock()
	if resumed := int64(len(rn.levels) - len(missing)); resumed > 0 {
		rn.resumedLevels.Add(resumed)
		s.levelsResumed.Add(resumed)
		s.emitRunMetric(rn, map[string]int64{"service.levels_resumed": resumed}, nil, nil)
		rn.log.Info("levels resumed from checkpoints", "resumed", resumed, "missing", len(missing))
	}
	// A fully checkpointed run executes nothing, so it opens no sweep.
	if len(missing) == 0 {
		return out, nil
	}
	ran, err := flow.SweepLevels(rn.ctx, rn.designN, cfg, missingPct,
		func(_ context.Context, base *netlist.Netlist, lcfg flow.Config, pct float64) flow.LevelResult {
			return s.attemptLevel(rn, base, lcfg, pct)
		})
	if err != nil {
		return nil, err
	}
	for k, i := range missing {
		out[i] = ran[k]
	}
	return out, nil
}

// attemptLevel runs one level once and checkpoints it on success. A
// failure is not retried: the flow is a function of its inputs, so the
// level's error surfaces as-is, and resubmitting the body re-runs only
// the levels no checkpoint answers.
func (s *Server) attemptLevel(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
	lr := s.runLevel(rn, base, cfg, pct)
	s.levelsRun.Add(1)
	s.emitRunMetric(rn, map[string]int64{"service.levels_run": 1}, nil, nil)
	if lr.Err != nil {
		rn.log.Warn("level failed", "tp_percent", pct, "error", lr.Err)
		return lr
	}
	rn.log.Debug("level done", "tp_percent", pct, "truncated", lr.Metrics.Truncated)
	if rn.cacheable && !lr.Metrics.Truncated {
		s.checkpoint(&levelImage{
			Key: levelKey(rn.baseKey, pct), TPPercent: pct, Metrics: lr.Metrics,
			RunID: rn.id, JobID: rn.primary,
		})
	}
	return lr
}

// checkpoint is the level-done transition: one freshly completed level
// is filed, then enters the resume store. A failed write leaves it
// resumable until the next restart.
func (s *Server) checkpoint(img *levelImage) {
	img.Done = time.Now()
	s.writeImage(levelsDir, img.Key, img)
	s.mu.Lock()
	evicted := s.checkpoints.put(*img)
	s.mu.Unlock()
	for _, key := range evicted {
		s.removeImage(levelsDir, key)
	}
}

// finishRun delivers a run's verdict to every job still attached to it,
// feeds the cache, and tears the run down. Once it returns, the run's
// record is all its jobs still reference.
func (s *Server) finishRun(rn *run, res *JobResult, err error) {
	out, errMsg := outcome{state: StateDone}, ""
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), err == nil && rn.ctx.Err() != nil:
		out = outcome{state: StateCanceled, errMsg: "run canceled"}
	case err != nil:
		errMsg = err.Error()
		out = outcome{state: StateFailed, errMsg: errMsg}
	case res != nil:
		// Encoded once: every GET /result of every job sharing the result,
		// from this run or from the cache, writes these bytes.
		out.result = encodeResult(res)
	}
	// Cache only complete, successful, deterministic results: a partial
	// sweep must re-run its failed level on resubmission, not be
	// replayed forever from the cache. Publishing before the inflight
	// entry goes is what admit's re-check under the lock relies on.
	publish := out.state == StateDone && rn.cacheable && res != nil && res.Complete
	if publish {
		s.cache.Put(rn.key, out.result)
	}

	now := time.Now()
	s.mu.Lock()
	s.dropRunLocked(rn)
	jobs := rn.jobs
	rn.jobs = nil
	s.mu.Unlock()
	if publish {
		// Every waiter's request compiled to rn.key: a resubmission of the
		// same body resolves from the request index.
		for _, j := range jobs {
			s.cache.Alias(j)
		}
	}
	// Crash semantics: a SIGKILL before the retired images leaves the
	// jobs pending, so the restarted daemon re-runs them (cheaply, from
	// their level checkpoints); a clean drain that cancels queued runs
	// lands here too and retires their jobs durably as canceled.
	s.retire(jobs, out)

	rn.cancel() // release the context's resources
	rn.events.Close()
	rn.log.Info("run finished", "state", string(out.state), "jobs", len(jobs),
		"resumed_levels", rn.resumedLevels.Load(), "error", errMsg)

	// Retire the run into the history archive. Only runs that actually
	// executed a flow are archived — a run torn down while still queued
	// has no trace worth keeping.
	if s.archive != nil && rn.startedRunning && !s.dead.Load() {
		s.archiveRun(rn, jobs, out.state, errMsg, now)
	}
}

// outcome is the verdict retire delivers to each job it is given.
type outcome struct {
	state    State
	errMsg   string
	result   *encodedResult // StateDone only
	cacheHit bool           // answered from the result cache: no flow ran
}

const canceledByClient = "canceled by client"

// retire is the terminal transition and the only writer of a terminal
// state: every job in jobs that is not terminal yet takes the outcome,
// is detached from its run, filed, counted and reported. It returns how
// many jobs it retired — a job a DELETE or its run's verdict reached
// first is left alone, so every job is retired exactly once. A run that
// loses its last waiter here is dropped: off the queue if still there,
// its flow aborted if running, its event stream closed.
//
// A retired job keeps what a GET can still ask for: its verdict and its
// run's record. It lets go of the run and of its accepted image, which
// only a pending job needs, so neither the parsed design nor the bench
// text outlives the run's last waiter.
func (s *Server) retire(jobs []*Job, out outcome) int {
	now := time.Now()
	var retired, seen, filed []*Job
	var orphans []*run
	s.mu.Lock()
	for _, j := range jobs {
		if j.state.terminal() {
			continue
		}
		j.state, j.errMsg, j.result, j.cacheHit, j.finished = out.state, out.errMsg, out.result, out.cacheHit, now
		if out.cacheHit {
			j.started = j.created
		}
		if rn := j.run; rn != nil && !rn.done {
			rn.jobs = slices.DeleteFunc(rn.jobs, func(other *Job) bool { return other == j })
			if len(rn.jobs) == 0 {
				s.dropRunLocked(rn)
				orphans = append(orphans, rn)
			}
		}
		j.run, j.accepted = nil, nil
		retired = append(retired, j)
		if j.persisted {
			filed = append(filed, j)
		}
		// A job admit refused was never indexed: it is no job any client
		// or counter ever saw.
		if s.jobs[j.ID] == j {
			seen = append(seen, j)
		}
	}
	s.mu.Unlock()

	// Each filed job's file takes its verdict before retire returns (a
	// terminal job's fields no longer change), and a job no longer
	// indexed loses its file: one admit refused, or one retention forgot
	// while its image was being written.
	for _, j := range filed {
		s.writeImage(jobsDir, j.ID, retiredImage(j))
	}
	if len(filed) > 0 {
		s.mu.Lock()
		gone := slices.DeleteFunc(filed, func(j *Job) bool { return s.jobs[j.ID] == j })
		s.mu.Unlock()
		for _, j := range gone {
			s.removeImage(jobsDir, j.ID)
		}
	}

	for _, rn := range orphans {
		s.queue.Remove(rn)
		rn.cancel()
		rn.events.Close()
		rn.log.Info("run dropped, no waiter left")
	}
	switch n := int64(len(seen)); out.state {
	case StateDone:
		s.jobsDone.Add(n)
	case StateFailed:
		s.jobsFailed.Add(n)
	case StateCanceled:
		s.jobsCanceled.Add(n)
	}
	// One event per job, under the job's own ids and tenant: the terminal
	// counters and the end-to-end latency, which the tenant attr splits
	// per tenant on /metrics.
	gauges := map[string]float64{"service.queue_depth": float64(s.queue.Len()), "service.running": float64(s.running.Load())}
	for _, j := range seen {
		counters := map[string]int64{"service.jobs_" + string(out.state): 1}
		if out.cacheHit {
			counters["service.cache_hit_jobs"] = 1
		}
		s.emitEvent(telemetry.Event{
			Type: telemetry.EventSpanEnd, Stage: "service", Time: now, Counters: counters, Gauges: gauges,
			Hists: map[string]telemetry.HistData{"service.tenant_e2e_ns": telemetry.Observation(int64(now.Sub(j.created)))},
			Attrs: map[string]string{"run_id": j.runID, "job_id": j.ID, "tenant": j.Tenant},
		})
	}
	return len(retired)
}
