package service

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/netlist"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/trachive"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// run is one flow execution: the unit the queue holds and a worker
// executes. Several jobs may be attached to one run (singleflight:
// concurrent identical submissions coalesce), and a run outlives a
// cancelled job as long as any other job still wants its result.
type run struct {
	*runRecord
	key       string
	baseKey   string // level-independent content address (checkpoint keys)
	circHash  string // circuit-only hash (run-history circuit= filter)
	cfgHash   string // config-only hash (run-history config= filter)
	cacheable bool
	tenant    string // queue bucket: the first submitter's tenant
	primary   string // job_id of the first submitter (correlation attrs)
	circuit   string // the design's name, fixed at admission
	designN   *netlist.Netlist
	cfg       flow.Config
	levels    []float64
	workers   int
	budgetMS  int64
	log       *telemetry.Logger // job_id/run_id/tenant pre-bound
	events    *broadcaster      // the run's event stream: its tracer's sink (SSE)
	ctx       context.Context
	cancel    context.CancelFunc

	enqueued time.Time
	started  time.Time // when the flow actually began executing

	profile []byte // per-run CPU profile (nil unless -profile-runs captured one)

	// All below guarded by Server.mu. An empty jobs list means nobody
	// wants the result anymore and the run may be dropped/cancelled.
	jobs           []*Job
	startedRunning bool
	done           bool
}

// runRecord is the part of a run that outlives it: what a GET on a job
// can still ask of its run once the run is gone — the run's identity,
// its counters and its event stream (SSE). The run and every job
// attached to it share one, so a job a DELETE retired early keeps
// following the run's counters.
type runRecord struct {
	id string // run_id: the correlation identity of this flow run
	// retained is the run's broadcaster while memory is its events'
	// home: until the archive holds the run, for good on a server
	// without one. nil means a retired job streams them from the
	// archive. Guarded by Server.mu.
	retained      *broadcaster
	resumedLevels atomic.Int64 // levels answered from checkpoints
}

// attrs is the run's correlation identity, stamped onto every event the
// run emits. job_id is the first submitter's: coalesced jobs share the
// run's stream and find their own ids via GET /v1/jobs/{id} (run_id).
func (r *run) attrs() map[string]string {
	return map[string]string{"run_id": r.id, "job_id": r.primary, "tenant": r.tenant}
}

// Job is one client-visible submission.
type Job struct {
	ID      string
	Tenant  string
	Key     string
	Levels  []float64
	Circuit string
	digest  requestDigest // of the submission's body, aliased to Key once its result is cached

	// All below guarded by Server.mu.
	state    State
	runID    string // id of the run that executed (or will execute) the job
	cacheHit bool
	coalesce bool // attached to an already-inflight run
	// run is the live run the job waits on, nil once the job is terminal;
	// record is what the job keeps of it for good (nil when no run was
	// ever attached: a cache answer, or a retirement read back by replay).
	// resumed is its run's resumed levels at retirement, as its file
	// keeps them.
	run       *run
	record    *runRecord
	resumed   int64
	errMsg    string
	result    *encodedResult
	created   time.Time
	started   time.Time
	finished  time.Time
	persisted bool // the job has a file in the data dir
	cacheable bool // result eligible for cache + checkpoints
	// accepted is the replayable request, bench text included, of a job
	// still owed a run: its file's image. Dropped at retirement.
	accepted *jobImage
}

// LevelStatus is the per-level outcome inside a JobResult.
type LevelStatus struct {
	TPPercent float64 `json:"tp_percent"`
	OK        bool    `json:"ok"`
	Truncated bool    `json:"truncated,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// JobResult is the Tables 1–3 payload of a finished job.
type JobResult struct {
	Circuit  string         `json:"circuit"`
	TPLevels []float64      `json:"tp_levels"`
	Rows     []flow.Metrics `json:"rows"`
	Levels   []LevelStatus  `json:"levels"`
	Table1   string         `json:"table1"`
	Table2   string         `json:"table2"`
	Table3   string         `json:"table3"`
	// Complete is true when every requested level produced a row.
	Complete  bool  `json:"complete"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// CacheHit is personalized per job at response time. It stays the
	// last field: encodedResult keeps the body up to its value.
	CacheHit bool `json:"cache_hit"`
}

// encodedResult is a finished result beside its GET /result body, encoded
// once when the result is first delivered: the bytes writeJSON writes for
// it, up to cache_hit's value — the one byte run that differs between the
// jobs sharing a result.
type encodedResult struct {
	res  *JobResult
	head []byte // nil when the result cannot be encoded
}

// What follows cache_hit's name in a result body, by its value.
var (
	resultTail    = []byte("false\n}\n")
	resultTailHit = []byte("true\n}\n")
)

func encodeResult(res *JobResult) *encodedResult {
	out := *res
	out.CacheHit = false
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if enc.Encode(&out) != nil {
		return &encodedResult{res: res}
	}
	head, ok := bytes.CutSuffix(buf.Bytes(), resultTail)
	if !ok {
		panic("service: JobResult no longer ends with cache_hit")
	}
	return &encodedResult{res: res, head: bytes.Clone(head)}
}

// value is the result itself, nil for none.
func (e *encodedResult) value() *JobResult {
	if e == nil {
		return nil
	}
	return e.res
}

// write answers GET /result with the stored body, cache_hit personalized.
func (e *encodedResult) write(w http.ResponseWriter, cacheHit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if e.head == nil {
		return // writeJSON writes nothing for a value it cannot encode
	}
	w.Write(e.head)
	if cacheHit {
		w.Write(resultTailHit)
	} else {
		w.Write(resultTail)
	}
}

// JobStatus is the GET /v1/jobs/{id} body (and the submission response).
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// RunID identifies the flow run executing the job: the correlation
	// key shared by spans, SSE frames, log lines, job files and the
	// run archive. Empty for jobs answered from the cache (no flow
	// ran).
	RunID    string    `json:"run_id,omitempty"`
	State    State     `json:"state"`
	Key      string    `json:"key"`
	Circuit  string    `json:"circuit"`
	TPLevels []float64 `json:"tp_levels"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	// Coalesced reports that this submission attached to an already
	// in-flight identical run instead of starting its own flow.
	Coalesced bool `json:"coalesced,omitempty"`
	// ResumedLevels counts levels answered from durable checkpoints
	// instead of being re-executed.
	ResumedLevels int64  `json:"resumed_levels,omitempty"`
	Error         string `json:"error,omitempty"`
	CreatedAt     string `json:"created_at"`
	StartedAt     string `json:"started_at,omitempty"`
	FinishedAt    string `json:"finished_at,omitempty"`
}

// Stats is the live operational counter set (GET /v1/stats and the
// service-level /metrics families).
type Stats struct {
	QueueDepth   int   `json:"queue_depth"`
	Running      int   `json:"running"`
	FlowRuns     int64 `json:"flow_runs"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsCanceled int64 `json:"jobs_canceled"`
	Rejected     int64 `json:"rejected_429"`
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Draining     bool  `json:"draining"`
	// Durability counters (zero for in-memory servers).
	Ready bool `json:"ready"`
	// Retries always reads 0: a failed level runs once and is recovered
	// by resubmission, which resumes from level checkpoints. The field
	// stays only while the benchmark harness still reads it.
	Retries       int64 `json:"retries"`
	LevelsRun     int64 `json:"levels_run"`
	LevelsResumed int64 `json:"levels_resumed"`
	ReplayedJobs  int64 `json:"replayed_jobs"`
	// JournalErrors counts failed job and level file writes (the name is
	// older than the files).
	JournalErrors int64 `json:"journal_errors"`
	// Run-history archive counters (zero when history is disabled).
	RunsArchived  int64 `json:"runs_archived"`
	HistoryRuns   int   `json:"history_runs"`
	HistoryBytes  int64 `json:"history_bytes"`
	ArchiveErrors int64 `json:"archive_errors"`
}

// Options configures a Server.
type Options struct {
	// Workers is the worker-pool size: how many flows run concurrently
	// (default GOMAXPROCS/2, min 1). Each flow additionally runs up to
	// FlowWorkers of its levels at once.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs
	// across all tenants; a full queue answers 429 (default 64).
	QueueDepth int
	// CacheBytes is the result cache budget (default 64 MiB).
	CacheBytes int64
	// FlowWorkers is the number of levels in flight given to jobs that
	// do not set flow.workers themselves (default 1: with a busy pool,
	// flows beat each other; raise it for low-traffic latency).
	FlowWorkers int
	// MaxBodyBytes caps a submission body (default 8 MiB).
	MaxBodyBytes int64
	// RetainJobs bounds how many terminal jobs stay queryable before the
	// oldest are forgotten (default 512).
	RetainJobs int
	// Sinks receive every run's span events and the service-level
	// observations (queue depth, queue wait, cache hits, jobs by
	// terminal state) — tpid passes its /metrics sink.
	Sinks []telemetry.Sink
	// Log, when non-nil, is the service's structured logger: every
	// lifecycle transition (accept, coalesce, cache hit, run start,
	// level failure, checkpoint resume, finish, cancel, drain, replay)
	// logs through it with job_id/run_id/tenant bound. Nil disables
	// logging at zero cost.
	Log *telemetry.Logger
	// ExtraSinks are attached to every job's tracer (tests).
	ExtraSinks []telemetry.Sink
	// DataDir, when set, makes the server durable: every job and level
	// checkpoint is a file there (durable.go), and a restart on the same
	// directory replays retired results, level checkpoints, and
	// unfinished jobs. Empty = purely in-memory.
	DataDir string
	// HistoryRuns bounds how many retired runs the run-history archive
	// retains (default 512; negative disables the archive entirely).
	// The archive only exists for durable servers (DataDir set): it
	// lives in DataDir/runs.
	HistoryRuns int
	// HistoryBudgetBytes bounds the archive's on-disk trace+profile
	// bytes (default 512 MiB; negative means unbounded).
	HistoryBudgetBytes int64
	// ProfileRuns captures a per-run CPU profile (with run_id/stage/
	// tp_level pprof labels) for each flow run and archives it beside
	// the trace. Capture is process-global, so concurrent runs are
	// serialized: a run that arrives while another is being profiled
	// simply goes unprofiled.
	ProfileRuns bool

	// Test hooks (same-package tests only).
	writeHook  func(path string) error // consulted before every job and level file write; an error fails it
	replayGate chan struct{}           // replay blocks until closed (readyz tests)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.CacheBytes <= 0 {
		out.CacheBytes = 64 << 20
	}
	if out.FlowWorkers <= 0 {
		out.FlowWorkers = 1
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 8 << 20
	}
	if out.RetainJobs <= 0 {
		out.RetainJobs = 512
	}
	if out.HistoryRuns == 0 {
		out.HistoryRuns = 512
	}
	if out.HistoryBudgetBytes == 0 {
		out.HistoryBudgetBytes = 512 << 20
	}
	return out
}

// Server is the TPI-as-a-service daemon: an http.Handler exposing the
// /v1 job API, backed by a bounded fair queue, a shared worker pool,
// and the content-addressed result cache.
type Server struct {
	opt   Options
	mux   *http.ServeMux
	queue *fairQueue
	cache *resultCache

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // terminal-job retention FIFO
	inflight map[string]*run // singleflight: key → live cacheable run
	active   map[*run]bool   // every live run (queued or running)
	claimed  map[string]bool // client-supplied X-Request-IDs mid-admission

	draining  atomic.Bool
	workersWG sync.WaitGroup
	jobSeq    atomic.Int64
	runSeq    atomic.Int64
	flowRuns  atomic.Int64
	running   atomic.Int64

	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64
	rejected     atomic.Int64

	// Durability state. dead makes every data dir write a no-op (Kill —
	// crash simulation); ready gates submissions and /readyz until replay
	// finishes.
	checkpoints   *checkpointStore // guarded by mu
	dead          atomic.Bool
	ready         atomic.Bool
	replayWG      sync.WaitGroup
	levelsRun     atomic.Int64
	levelsResumed atomic.Int64
	replayedJobs  atomic.Int64
	journalErrors atomic.Int64

	// Run-history archive (nil when disabled). profileBusy serializes
	// per-run CPU profiling: pprof capture is process-global.
	archive       *trachive.Archive
	profileBusy   atomic.Bool
	runsArchived  atomic.Int64
	archiveErrors atomic.Int64

	// runFlow executes one run and returns its result; tests replace it
	// with a stub to exercise queueing/fairness/shutdown without paying
	// for real layouts. runLevel executes ONE level inside the real
	// runLevels/attemptLevel path; the lifecycle model test replaces it
	// to park and fail levels while that path itself stays under test.
	runFlow  func(r *run) (*JobResult, error)
	runLevel func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult

	shutdownCh chan struct{}
	shutdownMu sync.Mutex
}

// New starts an in-memory Server and its worker pool. Call Shutdown to
// stop it. New panics on errors, which only the durable (DataDir) path
// can produce — durable callers should use Open.
func New(opt Options) *Server {
	s, err := Open(opt)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a Server, replaying the DataDir when one is configured:
// retired jobs become queryable again, complete results
// repopulate the cache, level checkpoints repopulate the resume store,
// and unfinished jobs are re-enqueued. Replay runs asynchronously —
// the server answers /healthz immediately but holds /readyz (and
// rejects submissions with 503) until replay completes.
func Open(opt Options) (*Server, error) {
	s := &Server{
		opt:        opt.withDefaults(),
		jobs:       map[string]*Job{},
		inflight:   map[string]*run{},
		active:     map[*run]bool{},
		claimed:    map[string]bool{},
		shutdownCh: make(chan struct{}),
	}
	s.queue = newFairQueue(s.opt.QueueDepth)
	s.cache = newResultCache(s.opt.CacheBytes)
	s.checkpoints = newCheckpointStore()
	s.runFlow = s.sweepRun
	s.runLevel = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
		return flow.RunLevel(rn.ctx, base, cfg, pct)
	}

	if s.opt.DataDir != "" {
		st, err := loadDataDir(s.opt.DataDir)
		if err != nil {
			return nil, err
		}
		if s.opt.HistoryRuns >= 0 {
			arch, err := trachive.Open(filepath.Join(s.opt.DataDir, "runs"), trachive.Options{
				BudgetBytes: s.opt.HistoryBudgetBytes,
				MaxRuns:     s.opt.HistoryRuns,
			})
			if err != nil {
				return nil, fmt.Errorf("service: opening run archive: %w", err)
			}
			s.archive = arch
		}
		s.replayWG.Add(1)
		go s.replay(st)
	} else {
		s.ready.Store(true)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/stats", s.handleRunsStats)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunMeta)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("GET /v1/runs/{id}/profile", s.handleRunProfile)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)

	s.workersWG.Add(s.opt.Workers)
	for i := 0; i < s.opt.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// FlowRuns reports how many flows have actually been executed — the
// observable proof that cache hits and coalesced submissions cost zero
// additional flows.
func (s *Server) FlowRuns() int64 { return s.flowRuns.Load() }

// Stats snapshots the operational counters.
func (s *Server) Stats() Stats {
	entries, bytes, hits, misses := s.cache.Stats()
	var archStats trachive.Stats
	if s.archive != nil {
		archStats = s.archive.Stats()
	}
	return Stats{
		QueueDepth:   s.queue.Len(),
		Running:      int(s.running.Load()),
		FlowRuns:     s.flowRuns.Load(),
		JobsDone:     s.jobsDone.Load(),
		JobsFailed:   s.jobsFailed.Load(),
		JobsCanceled: s.jobsCanceled.Load(),
		Rejected:     s.rejected.Load(),
		CacheEntries: entries,
		CacheBytes:   bytes,
		CacheHits:    hits,
		CacheMisses:  misses,
		Draining:     s.draining.Load(),

		Ready:         s.ready.Load(),
		LevelsRun:     s.levelsRun.Load(),
		LevelsResumed: s.levelsResumed.Load(),
		ReplayedJobs:  s.replayedJobs.Load(),
		JournalErrors: s.journalErrors.Load(),

		RunsArchived:  s.runsArchived.Load(),
		HistoryRuns:   archStats.Runs,
		HistoryBytes:  archStats.Bytes,
		ArchiveErrors: s.archiveErrors.Load(),
	}
}

// ---------------------------------------------------------------------------
// Submission

// bodyPool holds the buffers submissions are read into; one above
// maxPooledBody goes back to the allocator instead.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if why := s.unready(); why != "" {
		writeError(w, http.StatusServiceUnavailable, "server is %s, not accepting jobs", why)
		return
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.opt.MaxBodyBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	body := buf.Bytes()

	// The request index answers a body a full compile has resolved to a
	// cached key before anything decodes it. Every other body is decoded
	// and compiled in full.
	digest := digestBody(body)
	comp, indexed := s.cache.Resolve(digest)
	var flowCfg FlowConfig
	if !indexed {
		req, err := decodeRequest(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
			return
		}
		if comp, err = compileRequest(req); err != nil {
			var reqErr *requestError
			if errors.As(err, &reqErr) {
				writeError(w, http.StatusBadRequest, "%v", err)
			} else {
				writeError(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
		comp.digest, flowCfg = digest, req.Flow
	}

	// Pin the resolved preset: a spec-submitted circuit replays from its
	// canonical bench text, which must not fall back to the default preset.
	// An index answer is never filed: its image only names the job.
	flowCfg.Experiment = comp.preset
	img := &jobImage{
		JobID:    s.claimJobID(r.Header.Get("X-Request-ID")),
		Tenant:   comp.tenant,
		Name:     comp.src.name,
		Bench:    comp.bench,
		TPLevels: comp.levels,
		Flow:     &flowCfg,
		Created:  time.Now(),
	}
	defer s.releaseJobID(img.JobID)
	// Echo the job's identity so clients correlate responses with their
	// own request IDs (the header matches a valid supplied X-Request-ID,
	// otherwise carries the minted id).
	w.Header().Set("X-Request-ID", img.JobID)

	switch job, how := s.admit(comp, img, false); how {
	case admitAnswered:
		s.writeStatus(w, http.StatusOK, job)
	case admitQueued, admitCoalesced:
		s.writeStatus(w, http.StatusAccepted, job)
	case admitQueueFull:
		s.reject429(w)
	case admitDraining:
		writeError(w, http.StatusServiceUnavailable, "server is draining, not accepting jobs")
	}
}

// decodeRequest decodes a submission body: one JSON value of JobRequest's
// fields, followed by nothing but whitespace.
func decodeRequest(body []byte) (*JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("data after the request at offset %d", len(body)-len(rest))
	}
	return &req, nil
}

// claimJobID returns the job ID for a submission: a valid, unused
// client-supplied X-Request-ID is honored (so clients can pre-correlate
// their own traffic); anything else gets a minted id. The claim is held
// in s.claimed until releaseJobID so two concurrent submissions cannot
// both admit under one client id.
func (s *Server) claimJobID(want string) string {
	if validRequestID(want) {
		s.mu.Lock()
		_, taken := s.jobs[want]
		if !taken && !s.claimed[want] {
			s.claimed[want] = true
			s.mu.Unlock()
			return want
		}
		s.mu.Unlock()
	}
	return s.newJobID()
}

func (s *Server) releaseJobID(id string) {
	s.mu.Lock()
	delete(s.claimed, id)
	s.mu.Unlock()
}

// validRequestID bounds a client-supplied X-Request-ID: 1–64 chars of
// [A-Za-z0-9._-]. Anything else (empty, huge, control chars, label
// injection) is ignored and a server id is minted instead.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// reject429 answers an over-capacity submission. Retry-After carries
// jitter (1–4s) so a synchronized client fleet does not retry in
// lockstep and re-saturate the queue at the same instant.
func (s *Server) reject429(w http.ResponseWriter) {
	s.rejected.Add(1)
	s.emitMetric(map[string]int64{"service.rejected_429": 1}, nil, nil)
	s.opt.Log.Warn("submission rejected, queue full", "queue_depth", s.opt.QueueDepth)
	w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(4)))
	writeError(w, http.StatusTooManyRequests, "job queue full (%d queued), retry later", s.opt.QueueDepth)
}

func (s *Server) newJobID() string {
	var b [6]byte
	rand.Read(b[:])
	return fmt.Sprintf("j%06d-%s", s.jobSeq.Add(1), hex.EncodeToString(b[:]))
}

// newRunID mints a run_id: sequence for human ordering, random suffix
// for uniqueness across restarts.
func (s *Server) newRunID() string {
	var b [4]byte
	rand.Read(b[:])
	return fmt.Sprintf("r%06d-%s", s.runSeq.Add(1), hex.EncodeToString(b[:]))
}

// rememberJobLocked indexes the job and enforces terminal retention: a
// job it forgets loses its file too.
func (s *Server) rememberJobLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	// Evict the oldest terminal jobs beyond the retention window; live
	// jobs are always kept.
	for len(s.order) > s.opt.RetainJobs {
		victimID := s.order[0]
		victim := s.jobs[victimID]
		if victim != nil && !victim.state.terminal() {
			break // oldest job still live; retention resumes once it ends
		}
		s.order = s.order[1:]
		delete(s.jobs, victimID)
		if victim != nil && victim.persisted {
			s.removeImage(jobsDir, victimID)
		}
	}
}

// ---------------------------------------------------------------------------
// Status / result / cancel

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil
	}
	return job
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.lookup(w, r); job != nil {
		s.writeStatus(w, http.StatusOK, job)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	s.mu.Lock()
	state, errMsg, cacheHit, res := job.state, job.errMsg, job.cacheHit, job.result
	s.mu.Unlock()
	switch state {
	case StateDone:
		res.write(w, cacheHit)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	case StateCanceled:
		writeError(w, http.StatusGone, "job was canceled")
	default:
		writeError(w, http.StatusConflict, "job is %s; result not ready", state)
	}
}

// handleCancel detaches one job from its run; it is idempotent on a job
// that is already terminal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	if s.retire([]*Job{job}, outcome{state: StateCanceled, errMsg: canceledByClient}) > 0 {
		s.opt.Log.Info("job canceled by client", "job_id", job.ID, "tenant", job.Tenant)
	}
	s.writeStatus(w, http.StatusOK, job)
}

// ---------------------------------------------------------------------------
// SSE events

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	s.mu.Lock()
	rec := job.record
	var live *broadcaster
	if rec != nil {
		live = rec.retained
	}
	runID := job.runID
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Every frame carries its event index as the SSE id, so a
	// reconnecting client that sends Last-Event-ID resumes exactly where
	// its stream tore instead of replaying from 0.
	switch {
	case live != nil:
		// Stream the retained trace, then follow live until the run
		// closes or the client goes away.
		i := resumeFrom(r, live.len())
		stop := context.AfterFunc(r.Context(), live.wake)
		defer stop()
		for {
			tail, ok := live.next(r.Context(), i)
			if !ok {
				break
			}
			for k, e := range tail {
				line, err := json.Marshal(e)
				if err != nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", i+k, line); err != nil {
					return // client disconnected
				}
			}
			i += len(tail)
			flusher.Flush()
		}
	case runID != "":
		// The run is archived: its events live only on disk. A job replay
		// read back has no record, only its run's id; a cache answer has
		// neither.
		if !s.streamArchived(w, r, runID) {
			return // client disconnected
		}
	}

	// Final frame: the job's terminal status (or current state if the
	// client disconnected first — it is about to stop reading anyway).
	s.mu.Lock()
	status := s.statusLocked(job)
	s.mu.Unlock()
	if line, err := json.Marshal(status); err == nil {
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", line)
		flusher.Flush()
	}
}

// resumeFrom is the index of the first frame to send a client whose
// Last-Event-ID names a frame of a stream that holds n so far. The id is
// clamped to the stream: an id past its end, up to MaxInt where id+1
// would wrap, resumes at the end.
func resumeFrom(r *http.Request, n int) int {
	last, err := strconv.Atoi(r.Header.Get("Last-Event-ID"))
	if err != nil || last < 0 {
		return 0
	}
	return min(last, n-1) + 1
}

// streamArchived writes run id's archived trace as SSE frames, one per
// NDJSON line, from the frame Last-Event-ID resumes at. The archive
// encodes each event as json.Marshal does, so these are the frames the
// live stream sent. A run the archive has evicted streams none. It
// returns false once the client has gone away.
func (s *Server) streamArchived(w http.ResponseWriter, r *http.Request, id string) bool {
	m, ok := s.archive.Get(id)
	if !ok {
		return true
	}
	f, err := s.archive.OpenTrace(id)
	if err != nil {
		return true // evicted since Get
	}
	defer f.Close()
	from := resumeFrom(r, m.Events)
	gz, err := gzip.NewReader(f)
	if err == nil {
		br := bufio.NewReader(gz)
		var line []byte
		for i := 0; ; i++ {
			if line, err = br.ReadBytes('\n'); err != nil {
				break
			}
			if i < from {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", i, line[:len(line)-1]); err != nil {
				return false
			}
		}
	}
	if err != io.EOF {
		s.opt.Log.Warn("reading archived trace", "run_id", id, "error", err.Error())
	}
	return true
}

// ---------------------------------------------------------------------------
// Stats / health

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealth is pure liveness: the process is up and serving HTTP.
// It stays 200 through replay AND through a drain — restarting
// a draining daemon because its health check went red would turn every
// graceful shutdown into a crash loop. Readiness is /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: whether this daemon should receive traffic.
// Not ready while replaying the data dir (startup) or draining
// (shutdown) — load balancers steer new work elsewhere in both windows.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if why := s.unready(); why != "" {
		writeError(w, http.StatusServiceUnavailable, "%s", why)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// unready says why the server takes no new work right now, "" if it does.
func (s *Server) unready() string {
	switch {
	case s.draining.Load():
		return "draining"
	case !s.ready.Load():
		return "replaying its data dir"
	}
	return ""
}

// ---------------------------------------------------------------------------
// Shutdown

// Shutdown drains the server: new submissions are rejected with 503,
// still-queued jobs are canceled immediately, and running jobs get
// until ctx's deadline to finish before their contexts are canceled.
// It returns ctx.Err() when the drain deadline cut running jobs short,
// nil when everything drained cleanly. Safe to call once; the worker
// pool is gone afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownMu.Lock()
	defer s.shutdownMu.Unlock()
	select {
	case <-s.shutdownCh:
		return nil // already shut down
	default:
	}
	s.draining.Store(true)
	s.opt.Log.Info("drain started", "queued", s.queue.Len(), "running", s.running.Load())
	// Let a still-running replay finish re-admitting jobs before the queue
	// closes underneath it (its re-admissions are then drained like any
	// other queued job, and retire canceled).
	s.replayWG.Wait()

	// Cancel everything still queued: drain means "finish what is
	// running", not "work the whole backlog".
	for _, rn := range s.queue.Close() {
		s.finishRun(rn, nil, context.Canceled)
	}

	workersDone := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(workersDone)
	}()

	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		// Drain deadline: abort the in-flight flows. Cancellation lands
		// within one work unit, so the workers exit promptly.
		s.mu.Lock()
		for rn := range s.active {
			rn.cancel()
		}
		s.mu.Unlock()
		<-workersDone
		err = ctx.Err()
	}

	close(s.shutdownCh)
	s.opt.Log.Info("drain finished", "deadline_cut", err != nil)
	if s.archive != nil {
		s.archive.Close()
	}
	return err
}

// ---------------------------------------------------------------------------
// Telemetry + JSON helpers

// emitMetric folds service-level families into the sinks as one
// synthetic span_end under stage="service" with ID 0 (an observation
// event, exempt from trace balancing) — the same pipe the flow's own
// telemetry rides, so one scrape shows engine and service health side
// by side.
func (s *Server) emitMetric(counters map[string]int64, gauges map[string]float64, hists map[string]telemetry.HistData) {
	s.emitEvent(telemetry.Event{
		Type: telemetry.EventSpanEnd, Stage: "service", Time: time.Now(),
		Counters: counters, Gauges: gauges, Hists: hists,
	})
}

// emitRunMetric is emitMetric carrying a run's correlation attrs, so
// level/checkpoint/terminal counter flushes on /metrics and in every
// other sink name the run they belong to. The tenant attr is the
// run's, so these families split per tenant on /metrics (bounded by
// the PromSink tenant cap).
func (s *Server) emitRunMetric(rn *run, counters map[string]int64, gauges map[string]float64, hists map[string]telemetry.HistData) {
	s.emitEvent(telemetry.Event{
		Type: telemetry.EventSpanEnd, Stage: "service", Time: time.Now(),
		Counters: counters, Gauges: gauges, Hists: hists, Attrs: rn.attrs(),
	})
}

func (s *Server) emitEvent(e telemetry.Event) {
	for _, sink := range s.opt.Sinks {
		sink.Emit(e)
	}
}

func (s *Server) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:        job.ID,
		Tenant:    job.Tenant,
		RunID:     job.runID,
		State:     job.state,
		Key:       job.Key,
		Circuit:   job.Circuit,
		TPLevels:  job.Levels,
		CacheHit:  job.cacheHit,
		Coalesced: job.coalesce,
		Error:     job.errMsg,
		CreatedAt: job.created.UTC().Format(time.RFC3339Nano),
	}
	st.ResumedLevels = job.resumed
	if job.record != nil {
		st.ResumedLevels = job.record.resumedLevels.Load()
	}
	if !job.started.IsZero() {
		st.StartedAt = job.started.UTC().Format(time.RFC3339Nano)
	}
	if !job.finished.IsZero() {
		st.FinishedAt = job.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

func (s *Server) writeStatus(w http.ResponseWriter, code int, job *Job) {
	s.mu.Lock()
	st := s.statusLocked(job)
	s.mu.Unlock()
	writeJSON(w, code, st)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
