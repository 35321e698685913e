package service

// Durability: the record formats the lifecycle's transitions (see
// lifecycle.go) append to the journal, and what a restart makes of them.
//
//	accepted   — the job's replayable request (canonical bench text +
//	             resolved flow config).
//	level-done — one completed sweep level (content-addressed level key
//	             + its Metrics): the checkpoint granule resume is built
//	             on. Budgeted (wall-clock-dependent) and truncated
//	             levels are never checkpointed.
//	retired    — a run's jobs reaching done/failed/canceled (a DELETE
//	             and a queue refusal after the accepted record included),
//	             with the full result for done runs so a restarted
//	             daemon can answer GET /result without recomputing.
//
// Journals written by earlier builds also hold canceled records, one job
// detached by DELETE or refused by the queue each; replay still reads
// them.
//
// On startup the journal is replayed: retired jobs become queryable
// terminal jobs again (complete cacheable results repopulate the LRU in
// record order), level checkpoints repopulate the resume store, and
// unfinished jobs are recompiled from their accepted records and
// re-admitted — running only the levels that have no checkpoint.
//
// Journal append failures are counted (service.journal_errors) but do
// not fail requests: the daemon degrades to in-memory operation rather
// than refusing work (availability over durability).

import (
	"context"
	"encoding/json"
	"slices"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
)

// recAccepted is the journal image of one accepted job: everything
// needed to recompile an identical run after a restart. Bench is the
// CANONICAL .bench text (WriteBench of the parsed design, clock domains
// included), so recompiling hashes to the same content address as the
// original submission. Flow carries the resolved preset in Experiment,
// pinning the config even when the original request left it implicit.
type recAccepted struct {
	JobID string `json:"job_id"`
	// RunID is the run identity minted at admission, correlating this
	// record with log lines, spans, and flight dumps. A submission that
	// coalesced onto an in-flight run after this record was written is
	// retired under the absorbing run's id instead; replay reuses the
	// journaled id so a resumed run keeps its pre-crash identity.
	// Empty in journals written before run ids existed (JSON-additive).
	RunID    string     `json:"run_id,omitempty"`
	Tenant   string     `json:"tenant"`
	Name     string     `json:"name"`
	Bench    string     `json:"bench"`
	TPLevels []float64  `json:"tp_levels"`
	Flow     FlowConfig `json:"flow"`
	Created  time.Time  `json:"created"`
}

// recLevelDone checkpoints one completed level under its content
// address (base key + TP percentage).
type recLevelDone struct {
	Key       string       `json:"key"`
	TPPercent float64      `json:"tp_percent"`
	Metrics   flow.Metrics `json:"metrics"`
	// RunID/JobID name the run that produced the checkpoint (forensics
	// only: resume matches on Key alone). Empty in old journals.
	RunID string `json:"run_id,omitempty"`
	JobID string `json:"job_id,omitempty"`
}

// recRetired records a run's jobs reaching a terminal state.
type recRetired struct {
	JobIDs []string `json:"job_ids"`
	// RunID is the run that retired these jobs ("" for cache-answered
	// retirements, which never ran a flow, and for old journals).
	RunID     string     `json:"run_id,omitempty"`
	State     State      `json:"state"`
	Error     string     `json:"error,omitempty"`
	CacheKey  string     `json:"cache_key"`
	Cacheable bool       `json:"cacheable"`
	Result    *JobResult `json:"result,omitempty"`
	Finished  time.Time  `json:"finished"`
}

// recCanceled is the canceled record earlier builds wrote for one job a
// DELETE or a queue refusal retired. Nothing writes it now; replay reads
// it as "canceled by client", without the cache key it never carried.
type recCanceled struct {
	JobID    string    `json:"job_id"`
	RunID    string    `json:"run_id,omitempty"`
	Finished time.Time `json:"finished"`
}

// retiredJob is a terminal job inside a snapshot: the queryable state
// a restarted daemon serves for already-finished work.
type retiredJob struct {
	JobID string `json:"job_id"`
	// RunID is the run the job was retired under (its own, or the one it
	// coalesced onto; "" for a cache answer), preserved so a restarted
	// daemon answers status queries with the run_id the pre-crash daemon
	// reported.
	RunID     string     `json:"run_id,omitempty"`
	Tenant    string     `json:"tenant"`
	Name      string     `json:"name"`
	TPLevels  []float64  `json:"tp_levels"`
	State     State      `json:"state"`
	Error     string     `json:"error,omitempty"`
	CacheKey  string     `json:"cache_key"`
	Cacheable bool       `json:"cacheable"`
	Result    *JobResult `json:"result,omitempty"`
	Created   time.Time  `json:"created"`
	Finished  time.Time  `json:"finished"`
}

// snapState is the compacted fold of the whole journal: what a snapshot
// record holds and what replay reconstructs.
type snapState struct {
	Pending []recAccepted  `json:"pending"`
	Retired []retiredJob   `json:"retired"`
	Levels  []recLevelDone `json:"levels"`
}

// foldRecords reduces a replayed record stream to its final state:
// pending jobs still owed a run, retired jobs in retirement order, and
// the surviving level checkpoints.
func foldRecords(recs []journal.Record) *snapState {
	st := &snapState{}
	levelIdx := map[string]int{}
	// retire moves a pending job to the retired list under the verdict r
	// of its terminal record; a second terminal record for the job, or
	// one for a job never accepted, changes nothing.
	retire := func(id string, r retiredJob) {
		i := slices.IndexFunc(st.Pending, func(p recAccepted) bool { return p.JobID == id })
		if i < 0 {
			return
		}
		acc := st.Pending[i]
		st.Pending = slices.Delete(st.Pending, i, i+1)
		r.JobID, r.Tenant, r.Name, r.TPLevels, r.Created = id, acc.Tenant, acc.Name, acc.TPLevels, acc.Created
		st.Retired = append(st.Retired, r)
	}
	for _, r := range recs {
		switch r.Type {
		case journal.TypeSnapshot:
			var snap snapState
			if json.Unmarshal(r.Data, &snap) == nil {
				st = &snap
				levelIdx = map[string]int{}
				for i, l := range st.Levels {
					levelIdx[l.Key] = i
				}
			}
		case journal.TypeAccepted:
			var rec recAccepted
			if json.Unmarshal(r.Data, &rec) == nil && rec.JobID != "" &&
				!slices.ContainsFunc(st.Pending, func(p recAccepted) bool { return p.JobID == rec.JobID }) {
				st.Pending = append(st.Pending, rec)
			}
		case journal.TypeLevelDone:
			var rec recLevelDone
			if json.Unmarshal(r.Data, &rec) == nil && rec.Key != "" {
				if i, ok := levelIdx[rec.Key]; ok {
					st.Levels[i] = rec
				} else {
					levelIdx[rec.Key] = len(st.Levels)
					st.Levels = append(st.Levels, rec)
				}
			}
		case journal.TypeRetired:
			var rec recRetired
			if json.Unmarshal(r.Data, &rec) == nil {
				for _, id := range rec.JobIDs {
					retire(id, retiredJob{
						RunID: rec.RunID, State: rec.State, Error: rec.Error, CacheKey: rec.CacheKey,
						Cacheable: rec.Cacheable, Result: rec.Result, Finished: rec.Finished,
					})
				}
			}
		case journal.TypeCanceled:
			var rec recCanceled
			if json.Unmarshal(r.Data, &rec) == nil {
				retire(rec.JobID, retiredJob{
					RunID: rec.RunID, State: StateCanceled, Error: canceledByClient, Finished: rec.Finished,
				})
			}
		}
	}
	return st
}

// ---------------------------------------------------------------------------
// Level checkpoint store

// checkpointStore holds completed levels by content address so a
// resumed or resubmitted sweep skips work already done. Insertion-order
// bounded: the oldest checkpoints fall off past maxCheckpoints.
type checkpointStore struct {
	m     map[string]recLevelDone
	order []string
}

const maxCheckpoints = 8192

func newCheckpointStore() *checkpointStore {
	return &checkpointStore{m: map[string]recLevelDone{}}
}

// All methods are called with Server.mu held.

func (c *checkpointStore) get(key string) (flow.Metrics, bool) {
	rec, ok := c.m[key]
	return rec.Metrics, ok
}

func (c *checkpointStore) put(rec recLevelDone) {
	if _, ok := c.m[rec.Key]; !ok {
		c.order = append(c.order, rec.Key)
		for len(c.order) > maxCheckpoints {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.m[rec.Key] = rec
}

func (c *checkpointStore) snapshot() []recLevelDone {
	out := make([]recLevelDone, 0, len(c.order))
	for _, key := range c.order {
		if rec, ok := c.m[key]; ok {
			out = append(out, rec)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Server-side journal plumbing

// appendRecord journals one state transition. A nil journal (in-memory
// server), a Kill()ed server, or an append failure all degrade to
// in-memory operation; failures are counted, never propagated.
func (s *Server) appendRecord(t journal.Type, v any) {
	if s.jrnl == nil || s.dead.Load() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if err := s.jrnl.Append(t, data); err != nil {
		s.journalFailed("journal append failed, degrading to in-memory", "record_type", int(t), "error", err)
	}
}

// journalFailed counts and reports a failed journal write, an append or
// a compaction alike: /v1/stats, /metrics and the log all see it.
func (s *Server) journalFailed(msg string, args ...any) {
	s.journalErrors.Add(1)
	s.emitMetric(map[string]int64{"service.journal_errors": 1}, nil, nil)
	s.opt.Log.Error(msg, args...)
}

// journalCompactBytes is the live-segment size past which a retirement
// triggers snapshot compaction.
const journalCompactBytes = 4 << 20

// maybeCompact snapshots the journal when its live segments outgrow the
// compaction threshold. One compaction at a time; concurrent retiring
// runs skip rather than queue.
func (s *Server) maybeCompact() {
	// Not before replay is done: until then the pending jobs of the
	// journal are not all back in s.jobs, and a snapshot would drop them.
	if s.jrnl == nil || s.dead.Load() || !s.ready.Load() || s.jrnl.Size() < journalCompactBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	defer s.compacting.Store(false)
	s.compactJournal()
}

// compactJournal writes the current fold of the journal as a snapshot,
// holding jgate so that no journaled transition falls between the state
// capture and the segment cut.
func (s *Server) compactJournal() {
	if s.jrnl == nil || s.dead.Load() {
		return
	}
	s.jgate.Lock()
	defer s.jgate.Unlock()
	state, err := json.Marshal(s.snapshotState())
	if err != nil {
		return
	}
	if s.opt.compactHook != nil {
		s.opt.compactHook()
	}
	if err := s.jrnl.Compact(state); err != nil {
		s.journalFailed("journal compaction failed", "error", err)
	}
}

// snapshotState assembles the snapState equivalent to replaying every
// record written so far.
func (s *Server) snapshotState() *snapState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &snapState{Levels: s.checkpoints.snapshot()}
	for _, id := range s.order {
		job := s.jobs[id]
		if job == nil || !job.journaled {
			continue
		}
		if job.state.terminal() {
			st.Retired = append(st.Retired, retiredJob{
				JobID: job.ID, RunID: job.runID, Tenant: job.Tenant, Name: job.Circuit,
				TPLevels: job.Levels, State: job.state, Error: job.errMsg,
				CacheKey: job.Key, Cacheable: job.cacheable, Result: job.result.value(),
				Created: job.created, Finished: job.finished,
			})
		} else if job.accepted != nil {
			st.Pending = append(st.Pending, *job.accepted)
		}
	}
	return st
}

// replay reconstructs the server's state from the journal fold, then
// marks the server ready. It runs asynchronously from Open so liveness
// (/healthz) is immediate while readiness (/readyz) waits; submissions
// during replay answer 503.
func (s *Server) replay(st *snapState) {
	defer s.replayWG.Done()
	if s.opt.replayGate != nil {
		<-s.opt.replayGate
	}

	s.mu.Lock()
	for _, l := range st.Levels {
		s.checkpoints.put(l)
	}
	// Retired jobs become queryable terminal jobs again; complete
	// cacheable results re-enter the LRU in retirement order, so the
	// cache's eviction order matches the pre-crash daemon's.
	for i := range st.Retired {
		r := &st.Retired[i]
		job := &Job{
			ID: r.JobID, runID: r.RunID, Tenant: r.Tenant, Key: r.CacheKey, Levels: r.TPLevels,
			Circuit: r.Name, state: r.State, errMsg: r.Error,
			created: r.Created, finished: r.Finished, started: r.Created,
			journaled: true, cacheable: r.Cacheable,
		}
		if _, exists := s.jobs[job.ID]; exists {
			continue
		}
		if r.Result != nil {
			job.result = encodeResult(r.Result)
		}
		s.rememberJobLocked(job)
		if r.Cacheable && r.Result != nil && r.Result.Complete {
			s.cache.Put(r.CacheKey, job.result)
		}
	}
	s.mu.Unlock()

	// Unfinished jobs are recompiled and re-enqueued through the normal
	// admission path: identical pending jobs coalesce, and a pending job
	// whose twin already retired with a cached result is answered from
	// the cache (and retired in the journal so it stays answered).
	replayed := int64(0)
	for i := range st.Pending {
		if s.readmit(&st.Pending[i]) {
			replayed++
		}
	}
	s.replayedJobs.Add(replayed)
	if replayed > 0 {
		s.emitMetric(map[string]int64{"service.replayed_jobs": replayed}, nil, nil)
	}
	s.opt.Log.Info("journal replay complete", "requeued", replayed,
		"retired", len(st.Retired), "checkpoints", len(st.Levels))
	// Startup compaction: the fold just performed becomes the snapshot,
	// bounding the next restart's replay cost.
	s.compactJournal()
	s.ready.Store(true)
}

// readmit re-admits one pending job from its accepted record under its
// journaled ids. Reports whether the job is owed a run again (as opposed
// to answered terminally).
func (s *Server) readmit(rec *recAccepted) bool {
	s.mu.Lock()
	_, exists := s.jobs[rec.JobID]
	s.mu.Unlock()
	if exists {
		return false
	}
	comp, err := compileRequest(&JobRequest{
		Tenant:   rec.Tenant,
		Circuit:  CircuitSpec{Bench: rec.Bench, Name: rec.Name},
		TPLevels: rec.TPLevels,
		Flow:     rec.Flow,
	})
	if err != nil {
		// The record no longer compiles (journal from a newer build?):
		// retire it as failed so it stops replaying forever.
		job := &Job{
			ID: rec.JobID, Tenant: rec.Tenant, Circuit: rec.Name, Levels: rec.TPLevels,
			state: StateQueued, created: rec.Created, journaled: true, accepted: rec,
		}
		s.mu.Lock()
		s.rememberJobLocked(job)
		s.mu.Unlock()
		s.retire([]*Job{job}, outcome{state: StateFailed, errMsg: "replay: " + err.Error()})
		return false
	}
	_, how := s.admit(comp, rec, true)
	return how == admitQueued || how == admitCoalesced
}

// Kill simulates an abrupt process death for crash tests: journal
// writes stop IMMEDIATELY — nothing after Kill reaches the data
// directory, exactly as if the process had been SIGKILLed — and the
// worker pool is torn down without drain semantics. The server is
// unusable afterwards; Open a new one on the same DataDir to "restart".
func (s *Server) Kill() {
	s.dead.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
}
