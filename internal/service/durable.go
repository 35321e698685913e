package service

// Durability: the files the lifecycle's transitions (lifecycle.go)
// write into the data dir, and what a restart makes of them (DESIGN.md
// §13). The data dir is its own index:
//
//	jobs/<job_id>.json  one job: its replayable request and the run it
//	                    waits on, rewritten once at retirement with its
//	                    verdict and result instead of the bench text.
//	levels/<key>.json   one completed level of a run: the checkpoint
//	                    granule resume is built on.
//	runs/               the run archive (internal/trachive).
//
// Every file is written by trachive.WriteFile (tmp + fsync + rename +
// directory fsync) under its id path-escaped, so a reader sees a whole
// image and a name stays inside its directory. A job file goes when
// retention forgets the job, a level file when the store evicts it.
// Open reads each directory once and replays it; a journal a parent
// build left is folded into files first (parentwal.go). A failed write
// is counted (service.journal_errors), never propagated: the job carries
// on in memory (availability over durability).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/trachive"
)

// jobImage is one job's file. At admission it is the replayable request:
// the CANONICAL .bench text, which recompiles to the same content
// address, and the flow config with its preset pinned. At retirement it
// is the verdict instead. A parent journal's job records decode into it.
type jobImage struct {
	JobID string `json:"job_id"`
	// RunID is the run the job waits on (its own or its twin's), or was
	// retired under ("" for a cache answer).
	RunID    string      `json:"run_id,omitempty"`
	Tenant   string      `json:"tenant"`
	Name     string      `json:"name"`
	Bench    string      `json:"bench,omitempty"`
	TPLevels []float64   `json:"tp_levels"`
	Flow     *FlowConfig `json:"flow,omitempty"`
	Created  time.Time   `json:"created"`

	// The verdict: a job whose State is terminal is retired. It keeps
	// every field GET /v1/jobs/{id} reports. Started is nil in a parent
	// build's file, which read back as started at creation.
	State         State      `json:"state,omitempty"`
	Error         string     `json:"error,omitempty"`
	CacheKey      string     `json:"cache_key,omitempty"`
	Result        *JobResult `json:"result,omitempty"`
	Started       *time.Time `json:"started,omitempty"`
	CacheHit      bool       `json:"cache_hit,omitempty"`
	Coalesced     bool       `json:"coalesced,omitempty"`
	ResumedLevels int64      `json:"resumed_levels,omitempty"`
	Finished      time.Time  `json:"finished"`
}

// levelImage checkpoints one completed level under its content address
// (base key + TP percentage).
type levelImage struct {
	Key       string       `json:"key"`
	TPPercent float64      `json:"tp_percent"`
	Metrics   flow.Metrics `json:"metrics"`
	// RunID/JobID name the run that produced the checkpoint (forensics
	// only: resume matches on Key alone).
	RunID string `json:"run_id,omitempty"`
	JobID string `json:"job_id,omitempty"`
	// Done orders the store's eviction across a restart.
	Done time.Time `json:"done"`
}

// dataState is what the data dir holds: pending jobs in admission order,
// retired jobs in retirement order, and the level checkpoints.
type dataState struct {
	Pending []jobImage   `json:"pending"`
	Retired []jobImage   `json:"retired"`
	Levels  []levelImage `json:"levels"`
}

// The data dir's job and level directories.
const jobsDir, levelsDir = "jobs", "levels"

// fileName is the file of the image with this id: escaping keeps a
// key's '/' out of it, the suffix an id of "." or ".." from naming a dir.
func fileName(id string) string { return url.PathEscape(id) + ".json" }

// loadDataDir folds a parent build's journal into files, then reads the
// job and level files back.
func loadDataDir(dir string) (*dataState, error) {
	for _, sub := range []string{jobsDir, levelsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	if err := foldParentWAL(dir); err != nil {
		return nil, err
	}
	jobs, err := readImages(filepath.Join(dir, jobsDir), func(img *jobImage) string { return img.JobID })
	if err != nil {
		return nil, err
	}
	levels, err := readImages(filepath.Join(dir, levelsDir), func(img *levelImage) string { return img.Key })
	if err != nil {
		return nil, err
	}
	st := &dataState{Levels: levels}
	for _, img := range jobs {
		if img.State.terminal() {
			st.Retired = append(st.Retired, img)
		} else {
			st.Pending = append(st.Pending, img)
		}
	}
	sortBy(st.Pending, func(j *jobImage) (time.Time, string) { return j.Created, j.JobID })
	sortBy(st.Retired, func(j *jobImage) (time.Time, string) { return j.Finished, j.JobID })
	sortBy(st.Levels, func(l *levelImage) (time.Time, string) { return l.Done, l.Key })
	return st, nil
}

// sortBy sorts images by time, then id.
func sortBy[T any](imgs []T, key func(*T) (time.Time, string)) {
	slices.SortFunc(imgs, func(a, b T) int {
		ta, ida := key(&a)
		tb, idb := key(&b)
		if c := ta.Compare(tb); c != 0 {
			return c
		}
		return strings.Compare(ida, idb)
	})
}

// readImages decodes every file in dir into an image whose id, by id, is
// its name, and removes any other file: a .tmp a crash cut short, or
// one that does not decode.
func readImages[T any](dir string, id func(*T) string) ([]T, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	var out []T
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		var img T
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &img)
		}
		if err != nil || id(&img) == "" || fileName(id(&img)) != e.Name() {
			os.Remove(path)
			continue
		}
		out = append(out, img)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Level checkpoint store

// checkpointStore holds completed levels by content address so a
// resumed or resubmitted sweep skips work already done; the oldest fall
// off past maxCheckpoints.
type checkpointStore struct {
	m     map[string]levelImage
	order []string
}

// maxCheckpoints bounds the store and levels/ (a variable for tests).
var maxCheckpoints = 8192

func newCheckpointStore() *checkpointStore {
	return &checkpointStore{m: map[string]levelImage{}}
}

// All methods are called with Server.mu held.

func (c *checkpointStore) get(key string) (flow.Metrics, bool) {
	img, ok := c.m[key]
	return img.Metrics, ok
}

// put stores one checkpoint and returns the keys it evicted.
func (c *checkpointStore) put(img levelImage) (evicted []string) {
	if _, ok := c.m[img.Key]; !ok {
		c.order = append(c.order, img.Key)
		for len(c.order) > maxCheckpoints {
			evicted = append(evicted, c.order[0])
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.m[img.Key] = img
	return evicted
}

// writeImage commits one image under dir/sub, unless the server is
// in-memory or Kill()ed; a failed write is counted, never propagated.
func (s *Server) writeImage(sub, id string, img any) {
	if s.opt.DataDir == "" || s.dead.Load() {
		return
	}
	path := filepath.Join(s.opt.DataDir, sub, fileName(id))
	data, err := json.Marshal(img)
	if err == nil && s.opt.writeHook != nil {
		err = s.opt.writeHook(path)
	}
	if err == nil {
		err = trachive.WriteFile(path, data)
	}
	if err != nil {
		s.journalErrors.Add(1)
		s.emitMetric(map[string]int64{"service.journal_errors": 1}, nil, nil)
		s.opt.Log.Error("data dir write failed, carrying on in memory", "file", path, "error", err)
	}
}

// removeImage deletes one image under dir/sub, unless the server is
// in-memory or Kill()ed; a file a failed remove leaves is read back by
// the next Open.
func (s *Server) removeImage(sub, id string) {
	if s.opt.DataDir != "" && !s.dead.Load() {
		os.Remove(filepath.Join(s.opt.DataDir, sub, fileName(id)))
	}
}

// retiredImage is the file of a terminal job.
func retiredImage(job *Job) *jobImage {
	return &jobImage{
		JobID: job.ID, RunID: job.runID, Tenant: job.Tenant, Name: job.Circuit, TPLevels: job.Levels,
		Created: job.created, State: job.state, Error: job.errMsg, CacheKey: job.Key,
		Result: job.result.value(), Started: &job.started,
		CacheHit: job.cacheHit, Coalesced: job.coalesce, ResumedLevels: job.resumed, Finished: job.finished,
	}
}

// replay reconstructs the server's state from the data dir, then marks
// the server ready. It runs asynchronously from Open so liveness
// (/healthz) is immediate while readiness (/readyz) waits; submissions
// during replay answer 503.
func (s *Server) replay(st *dataState) {
	defer s.replayWG.Done()
	if s.opt.replayGate != nil {
		<-s.opt.replayGate
	}

	s.mu.Lock()
	var evicted []string
	for _, l := range st.Levels {
		evicted = append(evicted, s.checkpoints.put(l)...)
	}
	// Retired jobs become queryable terminal jobs again; complete
	// results re-enter the LRU in retirement order, so the
	// cache's eviction order matches the pre-crash daemon's.
	for i := range st.Retired {
		r := &st.Retired[i]
		job := &Job{
			ID: r.JobID, runID: r.RunID, Tenant: r.Tenant, Key: r.CacheKey, Levels: r.TPLevels,
			Circuit: r.Name, state: r.State, errMsg: r.Error, cacheHit: r.CacheHit, coalesce: r.Coalesced,
			resumed: r.ResumedLevels, created: r.Created, finished: r.Finished, started: r.Created,
			persisted: true,
		}
		if r.Started != nil {
			job.started = *r.Started
		}
		if r.Result != nil {
			job.result = encodeResult(r.Result)
		}
		s.rememberJobLocked(job)
		if r.Result != nil && r.Result.Complete {
			s.cache.Put(r.CacheKey, job.result)
		}
	}
	s.mu.Unlock()
	for _, key := range evicted {
		s.removeImage(levelsDir, key)
	}

	// Unfinished jobs are re-admitted through the normal path: identical
	// pending jobs coalesce, and one whose twin retired with a cached
	// result is answered from the cache (and its file retired).
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
	s.opt.Log.Info("data dir replay complete", "requeued", replayed,
		"retired", len(st.Retired), "checkpoints", len(st.Levels))
	s.ready.Store(true)
}

// readmit re-admits one pending job from its image under its filed ids,
// reporting whether the job is owed a run again.
func (s *Server) readmit(img *jobImage) bool {
	req := &JobRequest{
		Tenant:   img.Tenant,
		Circuit:  CircuitSpec{Bench: img.Bench, Name: img.Name},
		TPLevels: img.TPLevels,
	}
	if img.Flow != nil {
		req.Flow = *img.Flow
	}
	comp, err := compileRequest(req)
	if err != nil {
		// The image no longer compiles (written by a newer build?): retire
		// it as failed so it stops replaying forever.
		job := &Job{
			ID: img.JobID, Tenant: img.Tenant, Circuit: img.Name, Levels: img.TPLevels,
			state: StateQueued, created: img.Created, persisted: true, accepted: img,
		}
		s.mu.Lock()
		s.rememberJobLocked(job)
		s.mu.Unlock()
		s.retire([]*Job{job}, outcome{state: StateFailed, errMsg: "replay: " + err.Error()})
		return false
	}
	_, how := s.admit(comp, img, true)
	return how == admitQueued || how == admitCoalesced
}

// Kill simulates an abrupt process death for crash tests: data dir
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
