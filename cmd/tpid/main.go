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
//	GET    /debug/flight        flight-recorder dump: the last -flight-events telemetry
//	                            events (spans, service observations, log lines) as
//	                            NDJSON; ?run=<run_id> keeps only that run's events
//
// Every submission gets a job_id (a valid client X-Request-ID is
// honored and echoed back) and every flow run a run_id; both ride on
// every span, SSE frame, log line, job file, and flight-recorder
// entry, so one grep correlates a request end to end.
//
// Submissions are queued with per-tenant round-robin fairness and
// bounded depth (429 when full). Identical submissions are coalesced
// onto one running flow and finished results are served from a
// content-addressed cache, so a million identical requests cost one
// layout. SIGTERM/SIGINT drains: running jobs get -drain-timeout to
// finish, new submissions are rejected with 503, then the process
// exits. SIGQUIT dumps the flight recorder plus a goroutine profile
// (to -data-dir when set, stderr otherwise) WITHOUT exiting — stuck-
// process debugging — and a captured flow panic dumps the flight
// recorder automatically.
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	rpprof "runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tpilayout/internal/service"
	"tpilayout/internal/supervise"
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
	flightEvents := flag.Int("flight-events", 4096, "flight-recorder ring size: most recent telemetry events retained for /debug/flight, SIGQUIT, and panic dumps (0 disables)")
	historyRuns := flag.Int("history-runs", 512, "retired runs kept in the run-history archive under <data-dir>/runs (negative disables history; requires -data-dir)")
	historyBudget := flag.Int64("history-budget", 512<<20, "byte budget for archived traces+profiles (oldest runs evicted first; negative = unbounded)")
	profileRuns := flag.Bool("profile-runs", false, "capture a per-run CPU profile (pprof, with run_id/stage/tp_level labels) and archive it beside the trace; overlapping runs are profiled one at a time")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()

	var flight *telemetry.FlightRecorder
	if *flightEvents > 0 {
		flight = telemetry.NewFlightRecorder(*flightEvents)
	}
	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpid: %v\n", err)
		os.Exit(1)
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, level, flight)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpid: %v\n", err)
		os.Exit(1)
	}
	logger = logger.With("component", "tpid")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	dumper := &flightDumper{flight: flight, dir: *dataDir, log: logger}
	if flight != nil {
		// A captured flow panic writes the black box immediately, while
		// the evidence is still in the ring.
		supervise.SetOnPanic(func(pe *supervise.PanicError) {
			dumper.dump("panic", pe.Stack)
		})
	}

	prom := telemetry.NewPromSink("tpid")
	srv, err := service.Open(service.Options{
		Workers:            *workers,
		FlowWorkers:        *flowWorkers,
		QueueDepth:         *queueDepth,
		CacheBytes:         *cacheBytes,
		MaxBodyBytes:       *maxBody,
		RetainJobs:         *retainJobs,
		Sinks:              []telemetry.Sink{prom, flight},
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
	// exposition, the profiler, and the flight recorder.
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv)
	mux.Handle("/healthz", srv)
	mux.Handle("/readyz", srv)
	mux.HandleFunc("/debug/flight", dumper.serve)
	mux.Handle("/metrics", prom)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT: dump the flight recorder and a goroutine profile without
	// exiting (registering the handler disables Go's default die-and-
	// dump-all-goroutines behavior for this signal).
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			dumper.dump("sigquit", nil)
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr,
		"surfaces", "/v1 /metrics /debug/pprof /debug/flight")

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

// flightDumper writes postmortem artifacts — the flight-recorder NDJSON
// and (for SIGQUIT) a goroutine profile — to the data directory when
// one exists, stderr otherwise. Dumps serialize on a mutex so a panic
// storm produces readable files, and each gets a sequence number so
// nothing is overwritten.
type flightDumper struct {
	flight *telemetry.FlightRecorder
	dir    string
	log    *telemetry.Logger
	mu     sync.Mutex
	seq    atomic.Int64
}

// dump writes the black box. reason names the trigger ("sigquit",
// "panic"); stack, when non-nil, is the panicking goroutine's stack.
func (d *flightDumper) dump(reason string, stack []byte) {
	if d.flight == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.seq.Add(1)
	if d.dir == "" {
		fmt.Fprintf(os.Stderr, "--- tpid flight dump (%s, %d events) ---\n", reason, d.flight.Len())
		d.flight.WriteNDJSON(os.Stderr)
		if stack != nil {
			fmt.Fprintf(os.Stderr, "--- panic stack ---\n%s\n", stack)
		}
		if reason == "sigquit" {
			fmt.Fprintf(os.Stderr, "--- goroutines ---\n")
			rpprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		}
		fmt.Fprintf(os.Stderr, "--- end flight dump ---\n")
		return
	}
	name := filepath.Join(d.dir, fmt.Sprintf("flight-%s-%d.ndjson", reason, n))
	f, err := os.Create(name)
	if err != nil {
		d.log.Error("flight dump failed", "path", name, "error", err)
		return
	}
	d.flight.WriteNDJSON(f)
	if stack != nil {
		fmt.Fprintf(f, "%s\n", flightStackLine(reason, stack))
	}
	f.Close()
	d.log.Warn("flight dump written", "reason", reason, "path", name)
	if reason == "sigquit" {
		gname := filepath.Join(d.dir, fmt.Sprintf("goroutines-%d.txt", n))
		if gf, err := os.Create(gname); err == nil {
			rpprof.Lookup("goroutine").WriteTo(gf, 1)
			gf.Close()
			d.log.Warn("goroutine profile written", "path", gname)
		}
	}
}

// serve answers GET /debug/flight with the ring as NDJSON for tracestat
// -flight. ?run=<run_id> keeps only that run's events: every span,
// observation and log line of a run carries its run_id attr.
func (d *flightDumper) serve(w http.ResponseWriter, r *http.Request) {
	if d.flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	run := r.URL.Query().Get("run")
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range d.flight.Snapshot() {
		if run == "" || e.Attrs["run_id"] == run {
			enc.Encode(e)
		}
	}
}

// flightStackLine renders a panic stack as one final NDJSON log event,
// keeping the dump file parseable by tracestat end to end.
func flightStackLine(reason string, stack []byte) string {
	e := telemetry.Event{
		Type: telemetry.EventLog, Stage: "service", Time: time.Now(),
		Level: "ERROR", Msg: "panic captured",
		Attrs: map[string]string{"reason": reason, "stack": string(stack)},
	}
	b, err := json.Marshal(e)
	if err != nil {
		return ""
	}
	return string(b)
}
