// Command tpid is the TPI-as-a-service daemon: it serves the paper's
// complete Figure 2 flow over HTTP, turning the batch reproduction into
// a long-running, multi-tenant service.
//
// Usage:
//
//	tpid -addr :8080 -workers 4 -queue-depth 128 -cache-bytes 67108864
//
// API (all JSON):
//
//	POST   /v1/jobs             submit a sweep: {"circuit":{...},"tp_levels":[0,1,2],"flow":{...}}
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events live NDJSON span events over SSE
//	GET    /v1/jobs/{id}/result Tables 1–3 rows + rendered tables
//	DELETE /v1/jobs/{id}        cancel (mid-run cancellation lands within one work unit)
//	GET    /v1/stats            queue depth, cache hit/miss, jobs by terminal state
//	GET    /v1/runs             run-history archive, newest first; filter by circuit=,
//	                            config= (hash prefixes), tenant=, state=,
//	                            since=<RFC3339>, limit=
//	GET    /v1/runs/stats       archive retention counters
//	GET    /v1/runs/{id}        one archived run's metadata (hashes, state, wall/CPU ms, sizes)
//	GET    /v1/runs/{id}/trace  the run's full span trace (gzip NDJSON)
//	GET    /v1/runs/{id}/profile per-run CPU profile (pprof; needs -profile-runs)
//	GET    /healthz             liveness: 200 whenever the process serves HTTP
//	GET    /readyz              readiness: 503 while replaying the data dir or draining
//	GET    /metrics             Prometheus text exposition (flow + service + per-tenant families)
//	GET    /debug/pprof/        net/http/pprof
//
// Every submission gets a job_id (a valid client X-Request-ID is
// honored and echoed back) and every flow run a run_id; both ride on
// every span, SSE frame, log line, job file and archived run, so one
// grep correlates a request end to end.
//
// Submissions are queued with per-tenant round-robin fairness and
// bounded depth (429 when full). Identical submissions are coalesced
// onto one running flow and finished results are served from a
// content-addressed cache, so a million identical requests cost one
// layout. SIGTERM/SIGINT drains: running jobs get -drain-timeout to
// finish, new submissions are rejected with 503, then the process
// exits. SIGQUIT writes a goroutine profile to stderr WITHOUT exiting —
// stuck-process debugging — and a level that panics logs its stack at
// error level.
//
// With -data-dir the daemon is crash-safe: every job is a file under
// <data-dir>/jobs (its request at acceptance, its verdict and result at
// retirement) and every completed sweep level one under <data-dir>/levels,
// each written tmp + fsync + rename, and a restart on the same directory
// reads them back — finished jobs stay
// queryable, unfinished jobs re-run only their missing levels, and a
// kill -9 mid-sweep costs at most the levels that were in flight.
// Retired runs are archived under <data-dir>/runs (-history-runs,
// -history-budget). The daemon does not compare runs: download two
// archived traces and diff them with `tracestat -normalize a.gz b.gz`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	rpprof "runtime/pprof"
	"syscall"
	"time"

	"tpilayout/internal/service"
	"tpilayout/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address for the API (also serves /metrics and /debug/pprof)")
	workers := flag.Int("workers", 0, "worker-pool size: concurrent flows (0 = GOMAXPROCS/2)")
	flowWorkers := flag.Int("flow-workers", 1, "default number of levels in flight for jobs that do not set flow.workers")
	queueDepth := flag.Int("queue-depth", 64, "maximum queued jobs across all tenants before 429")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result-cache byte budget (content-addressed LRU)")
	maxBody := flag.Int64("max-body", 8<<20, "maximum submission body size in bytes")
	retainJobs := flag.Int("retain-jobs", 512, "terminal jobs kept queryable before the oldest are forgotten")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM lets running jobs finish before canceling them")
	dataDir := flag.String("data-dir", "", "data directory for crash-safe operation: job, level checkpoint and run archive files (empty = in-memory only)")
	historyRuns := flag.Int("history-runs", 512, "retired runs kept in the run-history archive under <data-dir>/runs (negative disables history; requires -data-dir)")
	historyBudget := flag.Int64("history-budget", 512<<20, "byte budget for archived traces+profiles (oldest runs evicted first; negative = unbounded)")
	profileRuns := flag.Bool("profile-runs", false, "capture a per-run CPU profile (pprof, with run_id/stage/tp_level labels) and archive it beside the trace; overlapping runs are profiled one at a time")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()

	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpid: %v\n", err)
		os.Exit(1)
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpid: %v\n", err)
		os.Exit(1)
	}
	logger = logger.With("component", "tpid")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	prom := telemetry.NewPromSink("tpid")
	srv, err := service.Open(service.Options{
		Workers:            *workers,
		FlowWorkers:        *flowWorkers,
		QueueDepth:         *queueDepth,
		CacheBytes:         *cacheBytes,
		MaxBodyBytes:       *maxBody,
		RetainJobs:         *retainJobs,
		Sinks:              []telemetry.Sink{prom},
		Log:                logger,
		DataDir:            *dataDir,
		HistoryRuns:        *historyRuns,
		HistoryBudgetBytes: *historyBudget,
		ProfileRuns:        *profileRuns,
	})
	if err != nil {
		fatal("opening service", "error", err)
	}
	if *dataDir != "" {
		logger.Info("data dir open, /readyz turns 200 once replay finishes", "data_dir", *dataDir)
	}

	// One listener serves everything: the job API, the Prometheus
	// exposition and the profiler.
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.Handle("/healthz", srv)
	mux.Handle("/readyz", srv)
	mux.Handle("/metrics", prom)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT: write a goroutine profile to stderr without exiting
	// (registering the handler disables Go's default die-and-dump-all-
	// goroutines behavior for this signal).
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			rpprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr,
		"surfaces", "/v1 /metrics /debug/pprof")

	select {
	case err := <-errCh:
		fatal("http server failed", "error", err)
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("drain failed", "error", err)
	} else if errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("drain timeout: running jobs were canceled")
	}
	// The job engine is drained; now close the listener.
	closeCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(closeCtx); err != nil {
		logger.Error("http shutdown failed", "error", err)
	}
	logger.Info("bye")
}
