# Convenience targets; everything is plain `go` underneath.

BENCH_PATTERN ?= BenchmarkTable1_|BenchmarkTable2_S38417|BenchmarkTable3_S38417|BenchmarkSweepSerial|BenchmarkSweepParallel

TRACE_OUT ?= trace.ndjson
TRACE_BASELINE ?= trace_baseline.ndjson
TRACE_INCR_OUT ?= trace_incr.ndjson
TRACE_INCR_BASELINE ?= trace_incr_baseline.ndjson
MAX_REGRESS ?= 25

.PHONY: test race bench bench-smoke trace-smoke trace-diff trace-incr-smoke trace-incr-diff metrics-smoke service-smoke flight-smoke history-smoke crash-smoke chaos

test:
	go build ./... && go vet ./... && go test ./...

race:
	go test -race ./...

bench:
	go test -run xxx -bench '$(BENCH_PATTERN)' -benchtime=3x -benchmem .

# bench-smoke is the CI gate: one iteration of the Table 1 benchmark,
# race detector off, failing on any panic. -short keeps it under the CI
# budget by skipping the slow circuits (DSPCore is ~85 s/op at default
# scale); the full set stays behind `make bench`.
bench-smoke:
	go test -short -run xxx -bench BenchmarkTable1 -benchtime=1x -benchmem .

# trace-smoke is the observability CI gate: one traced s38417 run at
# reduced scale, then tracestat over the trace — which exits non-zero if
# any span is unbalanced. $(TRACE_OUT) is left behind for archiving.
trace-smoke:
	go run ./cmd/tpiflow -circuit s38417c -scale 0.25 -tp 1 -trace $(TRACE_OUT) -progress
	go run ./cmd/tracestat $(TRACE_OUT)

# trace-diff is the cross-run regression sentinel: the fresh trace is
# compared stage-by-stage against the committed baseline. -normalize
# compares each stage's share of its run (machine-speed invariant) and
# -min-dur keeps sub-100ms stages out of the gate; exit 1 names the
# regressed stage and TP level.
trace-diff:
	go run ./cmd/tracediff -normalize -max-regress $(MAX_REGRESS) -min-dur 100ms $(TRACE_BASELINE) $(TRACE_OUT)

# trace-incr-smoke traces the incremental sweep engine: a serialized
# three-level chain (-sweep-mode incremental), then tracestat over the
# trace. This is the path the artifact chain and the incremental
# re-levelizer (flow.sta_incremental_ns) exercise together.
trace-incr-smoke:
	go run ./cmd/tpitables -circuits s38417c -scale 0.1 -levels 0,2,5 -workers 1 \
		-sweep-mode incremental -table 1 -trace $(TRACE_INCR_OUT)
	go run ./cmd/tracestat $(TRACE_INCR_OUT)

# trace-incr-diff gates the incremental path the same way trace-diff
# gates the full flow: stage-by-stage against the committed incremental
# baseline, normalized so only relative regressions fail.
trace-incr-diff:
	go run ./cmd/tracediff -normalize -max-regress $(MAX_REGRESS) -min-dur 100ms $(TRACE_INCR_BASELINE) $(TRACE_INCR_OUT)

# metrics-smoke starts a sweep with a live /metrics listener, scrapes it
# mid-run, and asserts the exposition carries the expected histogram
# families — the end-to-end check that PromSink, the -metrics flag, and
# the hot-path instrumentation hang together outside of unit tests.
# -workers 1 keeps the sweep serial so level 0's stages have all closed
# (and are scrapeable) while level 1 is still running.
metrics-smoke:
	go run ./cmd/tpitables -circuits s38417c -scale 0.25 -levels 0,1 -workers 1 -table 1 -metrics localhost:9341 & \
	pid=$$!; \
	scraped=0; \
	for i in $$(seq 1 600); do \
		if curl -sf http://localhost:9341/metrics -o metrics-smoke.txt 2>/dev/null && \
			grep -q tpilayout_route_net_ns metrics-smoke.txt && \
			grep -q tpilayout_atpg_podem_ns metrics-smoke.txt; then scraped=1; break; fi; \
		sleep 0.2; \
	done; \
	wait $$pid || { echo "metrics-smoke: sweep failed"; exit 1; }; \
	test $$scraped = 1 || { echo "metrics-smoke: live scrape never saw the histogram families"; exit 1; }; \
	for fam in tpilayout_spans_total tpilayout_stage_duration_ns_bucket tpilayout_stage_last_duration_ns \
		tpilayout_atpg_podem_ns tpilayout_atpg_sim_batch_ns tpilayout_place_fm_cut_delta tpilayout_route_net_ns; do \
		grep -q "$$fam" metrics-smoke.txt || { echo "metrics-smoke: missing family $$fam"; cat metrics-smoke.txt; exit 1; }; \
	done; \
	echo "metrics-smoke: live scrape OK, all families present"

# service-smoke is the daemon CI gate: tpid is started for real, a
# reduced-scale s38417c sweep is submitted over HTTP with curl, the
# result endpoint must come back 200 with complete tables, an identical
# resubmission must be answered as a cache hit without a second flow,
# and /metrics must expose the service-level families next to the flow
# ones. SIGTERM then drains the daemon and it must exit cleanly.
service-smoke:
	go build -o tpid-smoke ./cmd/tpid
	@set -e; \
	./tpid-smoke -addr localhost:9352 -workers 2 -flow-workers 2 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 100); do \
		curl -sf http://localhost:9352/healthz >/dev/null 2>&1 && { up=1; break; }; sleep 0.1; \
	done; \
	test $$up = 1 || { echo "service-smoke: tpid never came up"; exit 1; }; \
	body='{"tenant":"smoke","circuit":{"spec":"s38417c","scale":0.05},"tp_levels":[0,2],"flow":{"experiment":"s38417c"}}'; \
	id=$$(curl -sf -X POST -d "$$body" http://localhost:9352/v1/jobs | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "service-smoke: submission rejected"; exit 1; }; \
	echo "service-smoke: job $$id submitted"; \
	ok=0; for i in $$(seq 1 600); do \
		if curl -sf http://localhost:9352/v1/jobs/$$id/result -o service-smoke.json 2>/dev/null; then ok=1; break; fi; \
		sleep 0.5; \
	done; \
	test $$ok = 1 || { echo "service-smoke: result never became ready"; exit 1; }; \
	grep -q '"complete": true' service-smoke.json || { echo "service-smoke: sweep incomplete"; cat service-smoke.json; exit 1; }; \
	grep -q 'Table 1: Impact of TPI' service-smoke.json || { echo "service-smoke: result carries no Table 1"; exit 1; }; \
	curl -sf -X POST -d "$$body" http://localhost:9352/v1/jobs | grep -q '"cache_hit": true' \
		|| { echo "service-smoke: identical resubmission was not a cache hit"; exit 1; }; \
	curl -sf http://localhost:9352/metrics -o service-smoke-metrics.txt; \
	for fam in tpid_service_jobs_submitted_total tpid_service_flow_runs_total tpid_service_jobs_done_total \
		tpid_service_cache_hit_jobs_total tpid_service_queue_wait_ns tpid_spans_total; do \
		grep -q "$$fam" service-smoke-metrics.txt || { echo "service-smoke: /metrics missing $$fam"; cat service-smoke-metrics.txt; exit 1; }; \
	done; \
	kill -TERM $$pid; wait $$pid || { echo "service-smoke: drain exited non-zero"; exit 1; }; \
	trap - EXIT; \
	echo "service-smoke: submit, result, cache hit, metrics, drain all OK"

# flight-smoke is the correlated-observability CI gate: tpid runs with
# JSON logs, a job is submitted under a client X-Request-ID, and one
# run_id must then be visible in the status API, the JSON log, the
# /debug/flight dump (which tracestat -flight must parse, with service
# and log sections), and the per-tenant SLO families on /metrics.
# SIGQUIT must dump the flight recorder WITHOUT killing the daemon;
# SIGTERM must still drain cleanly afterwards.
flight-smoke:
	go build -o tpid-smoke ./cmd/tpid
	go build -o tracestat-smoke ./cmd/tracestat
	@set -e; \
	./tpid-smoke -addr localhost:9353 -workers 2 -flow-workers 2 -log-format json >flight-smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 100); do \
		curl -sf http://localhost:9353/healthz >/dev/null 2>&1 && { up=1; break; }; sleep 0.1; \
	done; \
	test $$up = 1 || { echo "flight-smoke: tpid never came up"; cat flight-smoke.log; exit 1; }; \
	body='{"tenant":"smoke","circuit":{"spec":"s38417c","scale":0.05},"tp_levels":[0,2],"flow":{"experiment":"s38417c"}}'; \
	id=$$(curl -sf -X POST -H 'X-Request-ID: flight-smoke-001' -d "$$body" http://localhost:9353/v1/jobs \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test "$$id" = flight-smoke-001 || { echo "flight-smoke: X-Request-ID not honored (got '$$id')"; exit 1; }; \
	ok=0; for i in $$(seq 1 600); do \
		curl -sf http://localhost:9353/v1/jobs/$$id/result -o /dev/null 2>/dev/null && { ok=1; break; }; sleep 0.5; \
	done; \
	test $$ok = 1 || { echo "flight-smoke: result never became ready"; exit 1; }; \
	run=$$(curl -sf http://localhost:9353/v1/jobs/$$id | sed -n 's/.*"run_id": "\([^"]*\)".*/\1/p'); \
	test -n "$$run" || { echo "flight-smoke: status carries no run_id"; exit 1; }; \
	echo "flight-smoke: job $$id ran as $$run"; \
	grep -q "\"run_id\":\"$$run\"" flight-smoke.log || { echo "flight-smoke: JSON log not correlated with $$run"; tail -5 flight-smoke.log; exit 1; }; \
	curl -sf http://localhost:9353/debug/flight -o flight-smoke.ndjson; \
	grep -q "$$run" flight-smoke.ndjson || { echo "flight-smoke: flight dump not correlated with $$run"; exit 1; }; \
	./tracestat-smoke -flight flight-smoke.ndjson >flight-smoke-stat.txt \
		|| { echo "flight-smoke: tracestat rejected the dump"; cat flight-smoke-stat.txt; exit 1; }; \
	grep -q 'service: .* observation' flight-smoke-stat.txt || { echo "flight-smoke: no service section"; cat flight-smoke-stat.txt; exit 1; }; \
	grep -q 'logs: .* record' flight-smoke-stat.txt || { echo "flight-smoke: no log section"; cat flight-smoke-stat.txt; exit 1; }; \
	curl -sf http://localhost:9353/metrics | grep -q 'tpid_service_tenant_jobs_done_total{stage="service",tenant="smoke"}' \
		|| { echo "flight-smoke: tenant SLO family missing from /metrics"; exit 1; }; \
	kill -QUIT $$pid; sleep 1; \
	kill -0 $$pid 2>/dev/null || { echo "flight-smoke: SIGQUIT killed the daemon"; exit 1; }; \
	grep -q -- '--- tpid flight dump (sigquit' flight-smoke.log || { echo "flight-smoke: SIGQUIT produced no dump"; tail -5 flight-smoke.log; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "flight-smoke: drain exited non-zero"; exit 1; }; \
	trap - EXIT; \
	echo "flight-smoke: correlation, flight dump, tenant SLOs, SIGQUIT all OK"

# history-smoke is the run-history CI gate: tpid runs with an archive
# and per-run profiling, the same budgeted job (atpg_budget_ms makes it
# non-cacheable, so the repeat executes a real flow) is submitted twice,
# and then: both runs must be archived, the archived trace must gunzip
# and pass tracestat via stdin, the second run's diff against the first
# must say no-regression, tpid_service_regression_total must scrape as
# zero, and the captured CPU profile must carry run_id/stage pprof
# labels. -max-regress 75 keeps shared-CI timing jitter out of the gate.
history-smoke:
	go build -o tpid-smoke ./cmd/tpid
	go build -o tracestat-smoke ./cmd/tracestat
	@set -e; \
	rm -rf history-smoke-data; \
	./tpid-smoke -addr localhost:9354 -workers 2 -flow-workers 2 -data-dir history-smoke-data \
		-profile-runs -max-regress 75 >history-smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 100); do \
		curl -sf http://localhost:9354/healthz >/dev/null 2>&1 && { up=1; break; }; sleep 0.1; \
	done; \
	test $$up = 1 || { echo "history-smoke: tpid never came up"; cat history-smoke.log; exit 1; }; \
	body='{"tenant":"smoke","circuit":{"spec":"s38417c","scale":0.05},"tp_levels":[0,2],"flow":{"experiment":"s38417c","atpg_budget_ms":600000}}'; \
	run=""; \
	for attempt in 1 2; do \
		id=$$(curl -sf -X POST -d "$$body" http://localhost:9354/v1/jobs | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
		test -n "$$id" || { echo "history-smoke: submission $$attempt rejected"; exit 1; }; \
		ok=0; for i in $$(seq 1 600); do \
			curl -sf http://localhost:9354/v1/jobs/$$id/result -o /dev/null 2>/dev/null && { ok=1; break; }; sleep 0.5; \
		done; \
		test $$ok = 1 || { echo "history-smoke: job $$attempt never finished"; exit 1; }; \
		run=$$(curl -sf http://localhost:9354/v1/jobs/$$id | sed -n 's/.*"run_id": "\([^"]*\)".*/\1/p'); \
		test -n "$$run" || { echo "history-smoke: job $$attempt carries no run_id (cache hit?)"; exit 1; }; \
		arch=0; for i in $$(seq 1 100); do \
			curl -sf http://localhost:9354/v1/runs/$$run -o history-smoke-run$$attempt.json 2>/dev/null && { arch=1; break; }; sleep 0.1; \
		done; \
		test $$arch = 1 || { echo "history-smoke: run $$run never archived"; exit 1; }; \
		echo "history-smoke: run $$attempt archived as $$run"; \
	done; \
	grep -q '"verdict": "no-baseline"' history-smoke-run1.json \
		|| { echo "history-smoke: first run should have no baseline"; cat history-smoke-run1.json; exit 1; }; \
	curl -sf http://localhost:9354/v1/runs/$$run/trace | gunzip -c | ./tracestat-smoke - >history-smoke-stat.txt \
		|| { echo "history-smoke: archived trace failed tracestat"; cat history-smoke-stat.txt; exit 1; }; \
	curl -sf http://localhost:9354/v1/runs/$$run/diff -o history-smoke-diff.json; \
	grep -q '"verdict": "no-regression"' history-smoke-diff.json \
		|| { echo "history-smoke: rerun diff is not clean"; cat history-smoke-diff.json; exit 1; }; \
	curl -sf http://localhost:9354/metrics -o history-smoke-metrics.txt; \
	grep -q 'tpid_service_regression_total' history-smoke-metrics.txt \
		|| { echo "history-smoke: regression counter family missing"; exit 1; }; \
	if grep 'tpid_service_regression_total{' history-smoke-metrics.txt | grep -qv ' 0$$'; then \
		echo "history-smoke: regression counter moved on identical reruns"; \
		grep tpid_service_regression history-smoke-metrics.txt; exit 1; \
	fi; \
	grep -q 'tpid_service_runs_archived_total' history-smoke-metrics.txt \
		|| { echo "history-smoke: archive counters missing from /metrics"; exit 1; }; \
	curl -sf http://localhost:9354/v1/runs/$$run/profile -o history-smoke.pprof \
		|| { echo "history-smoke: no archived CPU profile"; exit 1; }; \
	gunzip -c history-smoke.pprof | grep -aq run_id || { echo "history-smoke: profile lacks run_id label"; exit 1; }; \
	gunzip -c history-smoke.pprof | grep -aq stage || { echo "history-smoke: profile lacks stage label"; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "history-smoke: drain exited non-zero"; exit 1; }; \
	trap - EXIT; \
	echo "history-smoke: archive, trace, clean diff, zero counter, labeled profile all OK"

# crash-smoke is the durability CI gate: TestCrashRestartResumesSweep
# builds the real tpid binary, starts it with a journal directory,
# SIGKILLs it the moment the first sweep-level checkpoint is durable,
# restarts it on the same directory, and requires the resumed job to
# finish with tables byte-identical to the committed golden — having
# re-run only the levels that never checkpointed.
crash-smoke:
	go test -run 'TestCrashRestartResumesSweep' -count=1 -v .

# chaos runs the seeded fault-injection recovery suite under the race
# detector: 200 seeds of level panics, journal append faults, abrupt
# kills, cancels, and torn segment tails, each followed by a restart
# that must satisfy the recovery invariants (no double retirement, no
# lost jobs on an intact journal, retry budgets respected, clean fold).
# Three passes: the failures this suite exists for are races, and a race
# reintroduced must not get through on one lucky schedule.
chaos:
	go test -race -run 'TestChaosRecoveryInvariants' -count=3 ./internal/service/
