package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/trachive"
)

// This file is the run-history surface of the server: archiving retired
// runs into the trace archive, per-run CPU profiling, and the GET
// /v1/runs query API. The server compares no runs; `tracestat BASE CUR`
// over two archived traces does.

// runFlowProfiled wraps runFlow with the optional per-run CPU profile
// capture (-profile-runs). pprof capture is process-global, so only one
// run profiles at a time: a run arriving while another holds the
// profiler simply goes unprofiled (its trace still carries the
// getrusage CPU attribution either way).
func (s *Server) runFlowProfiled(rn *run) (*JobResult, error) {
	if !s.opt.ProfileRuns || s.archive == nil || !s.profileBusy.CompareAndSwap(false, true) {
		return s.runFlow(rn)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Something else (e.g. a live /debug/pprof/profile scrape) owns
		// the profiler; run unprofiled.
		s.profileBusy.Store(false)
		rn.log.Warn("run profiling unavailable", "error", err.Error())
		return s.runFlow(rn)
	}
	res, err := s.runFlow(rn)
	pprof.StopCPUProfile()
	s.profileBusy.Store(false)
	rn.profile = buf.Bytes()
	return res, err
}

// archiveRun persists a retired run into the history archive. Called
// outside Server.mu, after the retirement journal append — a crash
// before this point re-runs the jobs, a crash inside it costs at most
// this one archive entry. Once the archive holds the run, it is the
// one copy of the run's events: the record lets go of the broadcaster,
// and a retired job's SSE reads them back from disk. A failed Put
// leaves them in memory.
func (s *Server) archiveRun(rn *run, jobs []*Job, state State, errMsg string, now time.Time) {
	// The broadcaster is closed, so no Emit appends to its slice any more.
	events := rn.events.events
	meta := &trachive.Meta{
		RunID:       rn.id,
		Tenant:      rn.tenant,
		Circuit:     rn.circuit,
		CircuitHash: rn.circHash,
		ConfigHash:  rn.cfgHash,
		State:       string(state),
		Error:       errMsg,
		TPLevels:    rn.levels,
		Started:     rn.started,
		Finished:    now,
		WallMS:      now.Sub(rn.started).Milliseconds(),
	}
	for _, j := range jobs {
		meta.JobIDs = append(meta.JobIDs, j.ID)
	}
	// CPU is the sum over the run spans that closed: each carries its
	// level's getrusage attribution.
	var cpuNS int64
	for i := range events {
		if e := &events[i]; e.Type == telemetry.EventSpanEnd && e.Stage == flow.StageRun {
			cpuNS += e.CPUNS
		}
	}
	meta.CPUMS = cpuNS / 1e6

	if err := s.archive.Put(meta, events, rn.profile); err != nil {
		s.archiveErrors.Add(1)
		s.emitRunMetric(rn, map[string]int64{"service.archive_errors": 1}, nil, nil)
		rn.log.Warn("run archive failed", "error", err.Error())
		return
	}
	s.mu.Lock()
	rn.retained = nil
	s.mu.Unlock()
	s.runsArchived.Add(1)
	st := s.archive.Stats()
	s.emitRunMetric(rn, map[string]int64{"service.runs_archived": 1}, map[string]float64{
		"service.history_runs":  float64(st.Runs),
		"service.history_bytes": float64(st.Bytes),
	}, nil)
	rn.log.Info("run archived", "events", meta.Events,
		"trace_bytes", meta.TraceBytes, "profile_bytes", meta.ProfileBytes)
}

// ---------------------------------------------------------------------------
// Query API

// requireArchive writes the history-disabled error when the server has
// no archive (in-memory servers, or -history-runs < 0).
func (s *Server) requireArchive(w http.ResponseWriter) bool {
	if s.archive == nil {
		writeError(w, http.StatusNotFound, "run history disabled (start tpid with -data-dir and -history-runs >= 0)")
		return false
	}
	return true
}

// handleRuns is GET /v1/runs: list archived runs, newest first.
// Filters: circuit=<hash prefix>, config=<hash prefix>, tenant=, state=,
// since=<RFC3339>, limit=<n> (default 100).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	q := r.URL.Query()
	f := trachive.Filter{
		Circuit: q.Get("circuit"),
		Config:  q.Get("config"),
		Tenant:  q.Get("tenant"),
		State:   q.Get("state"),
		Limit:   100,
	}
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "since: want RFC3339, got %q", v)
			return
		}
		f.Since = t
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit: want a non-negative integer, got %q", v)
			return
		}
		f.Limit = n
	}
	writeJSON(w, http.StatusOK, struct {
		Runs []*trachive.Meta `json:"runs"`
	}{Runs: s.archive.List(f)})
}

// handleRunsStats is GET /v1/runs/stats: archive retention counters.
func (s *Server) handleRunsStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.archive.Stats())
}

// handleRunMeta is GET /v1/runs/{id}: the run's archived metadata.
func (s *Server) handleRunMeta(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	id := r.PathValue("id")
	m, ok := s.archive.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no archived run %q", id)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleRunTrace is GET /v1/runs/{id}/trace: the run's full NDJSON
// event stream, served as the stored gzip artifact verbatim (an opaque
// download, NOT Content-Encoding — that would make Go clients
// transparently decompress while curl pipes stayed compressed, so the
// bytes a consumer sees would depend on its HTTP library). Piping into
// tracestat works either way: it sniffs the gzip magic.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	id := r.PathValue("id")
	f, err := s.archive.OpenTrace(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no archived trace for run %q", id)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.trace.ndjson.gz"`)
	io.Copy(w, f)
}

// handleRunProfile is GET /v1/runs/{id}/profile: the per-run CPU
// profile captured under -profile-runs, in pprof format with
// run_id/stage/tp_level sample labels.
func (s *Server) handleRunProfile(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	id := r.PathValue("id")
	f, err := s.archive.OpenProfile(id)
	if errors.Is(err, os.ErrNotExist) {
		writeError(w, http.StatusNotFound, "no profile for run %q (profiles need -profile-runs, and capture skips overlapping runs)", id)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening profile: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.pprof"`)
	io.Copy(w, f)
}
