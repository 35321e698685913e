package service

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"time"

	"tpilayout/internal/telemetry"
	"tpilayout/internal/tracecmp"
	"tpilayout/internal/trachive"
)

// This file is the run-history surface of the server: archiving retired
// runs into the trace archive, the in-service regression sentinel that
// diffs each retiring run against its archived baseline, per-run CPU
// profiling, and the GET /v1/runs query API.

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

// baselineKeyOf renders the archive's baseline identity: short circuit
// and config hashes. Runs sharing a key ran the same circuit under the
// same resolved config — the precondition for a meaningful duration
// comparison. TP levels are deliberately absent (the diff aligns per
// stage×level cell).
func baselineKeyOf(circHash, cfgHash string) string {
	return shortHash(circHash) + "-" + shortHash(cfgHash)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// sentinelOptions is the diff policy the in-service sentinel applies:
// normalized shares (machine-speed invariant across restarts and
// hosts) with the configured gate, backstop, and noise floor — the
// same semantics as `tracediff -normalize`.
func (s *Server) sentinelOptions() tracecmp.Options {
	return tracecmp.Options{
		MaxRegressPct:  s.opt.MaxRegressPct,
		HardRegressPct: s.opt.HardRegressPct,
		MinDur:         s.opt.SentinelMinDur,
		Normalize:      true,
	}
}

// archiveRun persists a retired run into the history archive and runs
// the regression sentinel against its baseline. Called outside
// Server.mu, after the retirement journal append — a crash before this
// point re-runs the jobs, a crash inside it costs at most this one
// archive entry.
func (s *Server) archiveRun(rn *run, jobs []*Job, state State, errMsg string, now time.Time) {
	events := rn.events.snapshot()
	meta := &trachive.Meta{
		RunID:       rn.id,
		Tenant:      rn.tenant,
		Circuit:     rn.circuit,
		CircuitHash: rn.circHash,
		ConfigHash:  rn.cfgHash,
		BaselineKey: baselineKeyOf(rn.circHash, rn.cfgHash),
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

	// Stage×level rollup, best effort: a canceled or failed run usually
	// leaves an unbalanced stream (spans cut mid-flight), which is still
	// worth archiving for post-mortems — just without a rollup, so it
	// never serves as a baseline.
	if tr := telemetry.TraceFromEvents(events); tr.Balanced() {
		if side, err := tracecmp.FromSpans(tr.Spans); err == nil {
			meta.Rollup = side
			var cpuNS float64
			for k, c := range side.Cells {
				if k.Stage == "run" {
					cpuNS += c.CPUNS
				}
			}
			meta.CPUMS = int64(cpuNS / 1e6)
		}
	}

	// The sentinel: diff this run against the newest completed archived
	// run sharing its baseline key, before Put makes the run its own
	// newest baseline.
	if state == StateDone && meta.Rollup != nil {
		if base, ok := s.archive.Baseline(meta.BaselineKey, 0); ok {
			rep := tracecmp.Diff(base.Rollup, meta.Rollup, s.sentinelOptions())
			ds := &trachive.DiffSummary{Against: base.RunID, Verdict: "no-regression", Cells: len(rep.Rows)}
			if len(rep.Regressions) > 0 {
				ds.Verdict = "regression"
				ds.Regressions = rep.Regressions
			}
			meta.Diff = ds
			s.reportSentinel(rn, base, rep)
		} else {
			meta.Diff = &trachive.DiffSummary{Verdict: "no-baseline"}
		}
	}

	if err := s.archive.Put(meta, events, rn.profile); err != nil {
		s.archiveErrors.Add(1)
		s.emitRunMetric(rn, map[string]int64{"service.archive_errors": 1}, nil, nil)
		rn.log.Warn("run archive failed", "error", err.Error())
		return
	}
	s.runsArchived.Add(1)
	st := s.archive.Stats()
	s.emitRunMetric(rn, map[string]int64{"service.runs_archived": 1}, map[string]float64{
		"service.history_runs":  float64(st.Runs),
		"service.history_bytes": float64(st.Bytes),
	}, nil)
	verdict := ""
	if meta.Diff != nil {
		verdict = meta.Diff.Verdict
	}
	rn.log.Info("run archived", "baseline_key", meta.BaselineKey, "events", meta.Events,
		"trace_bytes", meta.TraceBytes, "profile_bytes", meta.ProfileBytes, "verdict", verdict)
	s.publishRollup(rn, meta.BaselineKey)
}

// reportSentinel publishes the sentinel's verdict for one retired run:
// per-(stage, level) regression counters and last-delta gauges on
// /metrics, the flagged rows in the structured log and flight recorder
// with the run_id bound, and — on a clean diff — a zero-valued counter
// so tpid_service_regression_total is scrapeable before any regression
// ever fires.
func (s *Server) reportSentinel(rn *run, base *trachive.Meta, rep *tracecmp.Report) {
	if len(rep.Regressions) == 0 {
		s.emitRunMetric(rn, map[string]int64{"service.regression": 0}, nil, nil)
		rn.log.Info("regression sentinel clean", "against", base.RunID, "cells", len(rep.Rows))
		return
	}
	s.regressions.Add(int64(len(rep.Regressions)))
	for _, row := range rep.Regressions {
		attrs := rn.attrs()
		attrs["level"] = formatTP(row.TP)
		e := telemetry.Event{
			Type: telemetry.EventSpanEnd, Stage: row.Stage, Time: time.Now(),
			Counters: map[string]int64{"service.regression": 1},
			Attrs:    attrs,
		}
		if !math.IsNaN(row.DeltaPct) && !math.IsInf(row.DeltaPct, 0) {
			e.Gauges = map[string]float64{"service.regression_last": row.DeltaPct}
		}
		s.emitEvent(e, rn.flight)
		rn.log.Warn("regression detected", "against", base.RunID, "stage", row.Stage,
			"tp", row.TP, "delta_pct", row.DeltaPct, "note", row.Note)
	}
}

// publishRollup refreshes the cross-run P50/P99 stage-latency gauges
// for one baseline key after a new run joins it. Series are labeled
// stage/level/baseline, all bounded by the PromSink cardinality caps.
func (s *Server) publishRollup(rn *run, key string) {
	for _, c := range s.archive.Rollup(key) {
		s.emitEvent(telemetry.Event{
			Type: telemetry.EventSpanEnd, Stage: c.Stage, Time: time.Now(),
			Gauges: map[string]float64{
				"service.crossrun_p50_ns": c.P50NS,
				"service.crossrun_p99_ns": c.P99NS,
			},
			Attrs: map[string]string{"level": formatTP(c.TP), "baseline": key},
		}, rn.flight)
	}
}

func formatTP(tp float64) string {
	return strconv.FormatFloat(tp, 'g', -1, 64)
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
// baseline=<exact key>, since=<RFC3339>, limit=<n> (default 100).
// The list view omits each run's rollup; GET /v1/runs/{id} has it.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	q := r.URL.Query()
	f := trachive.Filter{
		Circuit:  q.Get("circuit"),
		Config:   q.Get("config"),
		Tenant:   q.Get("tenant"),
		State:    q.Get("state"),
		Baseline: q.Get("baseline"),
		Limit:    100,
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
	metas := s.archive.List(f)
	items := make([]trachive.Meta, len(metas))
	for i, m := range metas {
		items[i] = *m
		items[i].Rollup = nil // list view: metadata only
	}
	writeJSON(w, http.StatusOK, struct {
		Runs []trachive.Meta `json:"runs"`
	}{Runs: items})
}

// handleRunsStats is GET /v1/runs/stats: archive retention counters and
// the distinct baseline keys. ?baseline=<key> adds that key's cross-run
// stage-latency rollup (P50/P99 per stage×level over retained runs).
func (s *Server) handleRunsStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	out := struct {
		trachive.Stats
		Baselines []trachive.BaselineInfo `json:"baselines,omitempty"`
		Rollup    []trachive.RollupCell   `json:"rollup,omitempty"`
	}{Stats: s.archive.Stats(), Baselines: s.archive.Baselines()}
	if key := r.URL.Query().Get("baseline"); key != "" {
		out.Rollup = s.archive.Rollup(key)
	}
	writeJSON(w, http.StatusOK, &out)
}

// handleRunMeta is GET /v1/runs/{id}: the full archived metadata,
// rollup and sentinel verdict included.
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
// tracediff/tracestat works either way: they sniff the gzip magic.
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

// handleRunDiff is GET /v1/runs/{id}/diff[?against=<run_id>]: diff the
// archived run against another archived run's rollup under the
// sentinel's options. Without ?against it prefers the baseline the
// sentinel used at retirement, falling back to the newest completed
// run with the same baseline key archived before this one.
func (s *Server) handleRunDiff(w http.ResponseWriter, r *http.Request) {
	if !s.requireArchive(w) {
		return
	}
	id := r.PathValue("id")
	m, ok := s.archive.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no archived run %q", id)
		return
	}
	if m.Rollup == nil {
		writeError(w, http.StatusConflict, "run %q has no rollup (state %s): nothing to diff", id, m.State)
		return
	}
	var base *trachive.Meta
	if against := r.URL.Query().Get("against"); against != "" {
		b, ok := s.archive.Get(against)
		if !ok {
			writeError(w, http.StatusNotFound, "no archived run %q to diff against", against)
			return
		}
		if b.Rollup == nil {
			writeError(w, http.StatusConflict, "run %q has no rollup (state %s): cannot serve as baseline", against, b.State)
			return
		}
		base = b
	} else {
		if m.Diff != nil && m.Diff.Against != "" {
			if b, ok := s.archive.Get(m.Diff.Against); ok && b.Rollup != nil {
				base = b
			}
		}
		if base == nil {
			if b, ok := s.archive.Baseline(m.BaselineKey, m.Seq); ok {
				base = b
			}
		}
	}
	type diffBody struct {
		RunID   string           `json:"run_id"`
		Against string           `json:"against,omitempty"`
		Verdict string           `json:"verdict"`
		Report  *tracecmp.Report `json:"report,omitempty"`
		Text    string           `json:"text,omitempty"`
	}
	if base == nil {
		writeJSON(w, http.StatusOK, &diffBody{RunID: id, Verdict: "no-baseline"})
		return
	}
	rep := tracecmp.Diff(base.Rollup, m.Rollup, s.sentinelOptions())
	verdict := "no-regression"
	if len(rep.Regressions) > 0 {
		verdict = "regression"
	}
	var text bytes.Buffer
	rep.Write(&text)
	writeJSON(w, http.StatusOK, &diffBody{
		RunID: id, Against: base.RunID, Verdict: verdict, Report: rep, Text: text.String(),
	})
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
