package service

// The run lifecycle. A job moves queued → running → done | failed |
// canceled, and every move that must survive a crash is one of three
// journaled transitions, each a single function that takes jgate.RLock
// itself, changes the state under mu, and appends its record before it
// lets go of the gate:
//
//	admit      — a job enters: the accepted record, then a place for the
//	             job (an in-flight twin's run, the result cache, or a new
//	             run on the queue).
//	checkpoint — one level of a run completed: the level-done record.
//	retire     — jobs reach a terminal state: the retired record, or the
//	             compact canceled record for one job leaving alone.
//
// Nothing else assigns a terminal state, appends these records, or bumps
// the jobs_done/failed/canceled counters. Compaction (durable.go) is the
// one holder of jgate.Lock.

import (
	"context"
	"errors"
	"slices"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
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

// admit is the accepted transition: it gives the job described by rec a
// place in the server, or refuses it. replay says rec was read back from
// the journal, so the record is not written again, the job enters under
// its journaled ids, and a refusal must still leave the job (whose client
// has held its id since before the crash) with a queryable verdict.
func (s *Server) admit(comp *compiled, rec *recAccepted, replay bool) (*Job, admission) {
	job := &Job{
		ID: rec.JobID, Tenant: comp.tenant, Key: comp.key, Levels: comp.levels,
		Circuit: comp.src.name, digest: comp.digest, state: StateQueued, created: rec.Created,
		cacheable: comp.cacheable, journaled: replay,
	}
	if replay {
		job.accepted = rec
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
		// from the cache without touching the queue, the gate or the
		// journal — it cost no flow, so there is nothing to recover. The
		// request index may have found the result already (comp.hit).
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
		// Fast-fail an obviously full queue before paying a journal fsync
		// for a job that will bounce with 429 anyway (the race with Push
		// below is compensated by a canceled record).
		s.mu.Lock()
		_, coalescible := s.inflight[comp.key]
		s.mu.Unlock()
		if s.queue.Len() >= s.opt.QueueDepth && !(comp.cacheable && coalescible) {
			return job, admitQueueFull
		}
	}
	// Mint the run identity before journaling so the accepted record
	// carries it; a job that coalesces is retired under the absorbing
	// run's id instead. Replay keeps the journaled id, so a resumed run
	// keeps its pre-crash identity.
	if rec.RunID == "" {
		rec.RunID = s.newRunID()
	}

	// The accepted record is written BEFORE the job becomes reachable, so
	// it always precedes any terminal record of the same job and replay
	// never sees the retirement of an unknown job. The gate is held until
	// the job is reachable, or a compaction in between would drop the
	// record of a job its snapshot does not know yet.
	s.jgate.RLock()
	if !replay && s.jrnl != nil {
		s.appendRecord(journal.TypeAccepted, rec)
		job.journaled, job.accepted = true, rec
	}
	s.mu.Lock()
	var live, rn *run
	var cached *encodedResult
	var refused error
	if comp.cacheable {
		// Singleflight: an identical run already queued or running absorbs
		// this submission — one flow, many results. Failing that, look in
		// the cache again: finishRun publishes to the cache before it
		// drops the inflight entry, so a run that ended since the first
		// probe is visible on one of the two paths, and an identical
		// submission never pays for a second flow.
		if live = s.inflight[comp.key]; live == nil {
			cached, _ = s.cache.Get(comp.key)
		}
	}
	switch {
	case live != nil:
		job.run, job.record, job.runID, job.coalesce = live, live.runRecord, live.id, true
		if live.startedRunning {
			job.state = StateRunning
		}
		live.jobs = append(live.jobs, job)
	case cached == nil:
		rn = s.newRun(comp, rec, job)
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
	s.jgate.RUnlock()

	switch {
	case refused != nil:
		// The job never ran: compensate its accepted record. Nobody can
		// query a fresh submission's verdict, so the compact record is
		// enough; a replayed one keeps the reason.
		msg := refused.Error()
		if replay {
			msg = "replay: " + msg
		}
		s.retire([]*Job{job}, outcome{state: StateCanceled, errMsg: msg, compact: !replay})
		if errors.Is(refused, ErrQueueFull) {
			return job, admitQueueFull
		}
		return job, admitDraining
	case cached != nil:
		// Retiring the job balances its accepted record, so replay does
		// not resurrect an already-answered job.
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
// under the run id its accepted record carries.
func (s *Server) newRun(comp *compiled, rec *recAccepted, job *Job) *run {
	ctx, cancel := context.WithCancel(context.Background())
	rn := &run{
		runRecord: &runRecord{id: rec.RunID, events: newBroadcaster()},
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
		budgetMS:  rec.Flow.ATPGBudgetMS,
		ctx:       ctx,
		cancel:    cancel,
		enqueued:  time.Now(),
		jobs:      []*Job{job},
	}
	if s.opt.Flight != nil {
		rn.flight = telemetry.NewFlightRecorder(runFlightEvents)
	}
	rn.log = s.opt.Log.With("job_id", job.ID, "run_id", rn.id, "tenant", rn.tenant)
	if rn.flight != nil {
		// Tee this run's log lines into its own black box as well.
		rn.log = rn.log.WithSinks(rn.flight)
	}
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
		map[string]telemetry.HistData{
			"service.queue_wait_ns":        telemetry.Observation(int64(wait)),
			"service.tenant_queue_wait_ns": telemetry.Observation(int64(wait)),
		},
	)
	rn.log.Info("run started", "queue_wait_ms", wait.Milliseconds(), "levels", len(rn.levels))

	res, err := s.runFlowProfiled(rn)
	s.running.Add(-1)
	s.finishRun(rn, res, err)
}

// sweepRun is the production runFlow: the supervised partial sweep with
// the run's broadcaster (SSE) and the server's /metrics sink attached,
// executed level by level through attemptLevel, which checkpoints.
func (s *Server) sweepRun(rn *run) (*JobResult, error) {
	sinks := []telemetry.Sink{rn.events}
	if s.opt.Metrics != nil {
		sinks = append(sinks, s.opt.Metrics)
	}
	if s.opt.Flight != nil {
		sinks = append(sinks, s.opt.Flight)
	}
	if rn.flight != nil {
		sinks = append(sinks, rn.flight)
	}
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
		s.checkpoint(&recLevelDone{
			Key: levelKey(rn.baseKey, pct), TPPercent: pct, Metrics: lr.Metrics,
			RunID: rn.id, JobID: rn.primary,
		})
	}
	return lr
}

// checkpoint is the level-done transition: one freshly completed level
// enters the resume store and the journal.
func (s *Server) checkpoint(rec *recLevelDone) {
	s.jgate.RLock()
	defer s.jgate.RUnlock()
	s.mu.Lock()
	s.checkpoints.put(*rec)
	s.mu.Unlock()
	s.appendRecord(journal.TypeLevelDone, rec)
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
	// Crash semantics: a SIGKILL before the retired record leaves the
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
	// compact journals the retirement as one canceled record per job
	// instead of a retired record. foldRecords reads a canceled record
	// back as "canceled by client", so it suits a DELETE and a job whose
	// verdict nobody can query.
	compact bool
}

const canceledByClient = "canceled by client"

// retire is the terminal transition and the only writer of a terminal
// state: every job in jobs that is not terminal yet takes the outcome,
// is detached from its run, journaled, counted and reported. It returns
// how many jobs it retired — a job a DELETE or its run's verdict reached
// first is left alone, so every job is retired exactly once. A run that
// loses its last waiter here is dropped: off the queue if still there,
// its flow aborted if running, its event stream closed.
//
// A retired job keeps what a GET can still ask for: its verdict and its
// run's record. It lets go of the run and of its accepted record, which
// only a pending job needs, so neither the parsed design nor the bench
// text outlives the run's last waiter.
func (s *Server) retire(jobs []*Job, out outcome) int {
	// A journaled transition runs under the gate; a cache answer to a job
	// that was never journaled must not wait behind a compaction.
	gated := false
	for _, j := range jobs {
		gated = gated || j.journaled
	}
	if gated {
		s.jgate.RLock()
	}
	now := time.Now()
	var retired, seen []*Job
	var journaled []string
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
		if j.journaled {
			journaled = append(journaled, j.ID)
		}
		// A job admit refused was never indexed: its record balances the
		// journal, but it is no job any client or counter ever saw.
		if s.jobs[j.ID] == j {
			seen = append(seen, j)
		}
	}
	s.mu.Unlock()

	if len(journaled) > 0 {
		first := retired[0] // jobs retired together share a run, hence key and run id
		if out.compact {
			for _, id := range journaled {
				s.appendRecord(journal.TypeCanceled, &recCanceled{JobID: id, RunID: first.runID, Finished: now})
			}
		} else {
			s.appendRecord(journal.TypeRetired, &recRetired{
				JobIDs: journaled, RunID: first.runID, State: out.state, Error: out.errMsg,
				CacheKey: first.Key, Cacheable: first.cacheable, Result: out.result.value(), Finished: now,
			})
		}
	}
	if gated {
		s.jgate.RUnlock()
		s.maybeCompact()
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
	// counters, and the per-tenant SLO families beside them.
	gauges := map[string]float64{"service.queue_depth": float64(s.queue.Len()), "service.running": float64(s.running.Load())}
	for _, j := range seen {
		counters := map[string]int64{"service.jobs_" + string(out.state): 1, "service.tenant_jobs_" + string(out.state): 1}
		if out.cacheHit {
			counters["service.cache_hit_jobs"] = 1
		}
		var runFlight *telemetry.FlightRecorder
		if j.record != nil {
			runFlight = j.record.flight
		}
		s.emitEvent(telemetry.Event{
			Type: telemetry.EventSpanEnd, Stage: "service", Time: now, Counters: counters, Gauges: gauges,
			Hists: map[string]telemetry.HistData{"service.tenant_e2e_ns": telemetry.Observation(int64(now.Sub(j.created)))},
			Attrs: map[string]string{"run_id": j.runID, "job_id": j.ID, "tenant": j.Tenant},
		}, runFlight)
	}
	return len(retired)
}
