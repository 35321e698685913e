# Convenience targets; everything is plain `go` underneath.

TRACE_OUT ?= trace.ndjson
MAX_REGRESS ?= 25

# The one traced sweep trace-smoke and trace-diff both make. -workers 1
# keeps it serial, so level 0's stages have all closed (and are
# scrapeable) while level 1 is still running.
TRACED_RUN = go run ./cmd/tpitables -circuits s38417c -scale 0.25 -levels 0,1 -workers 1 -table 1
TRACE_RERUN = $(TRACE_OUT:.ndjson=-rerun.ndjson)
TRACE_SCRAPE = $(TRACE_OUT:.ndjson=-metrics.txt)

.PHONY: test race trace-smoke trace-diff daemon-smoke chaos

test:
	go build ./... && go vet ./... && go test ./...

race:
	go test -race ./...

# trace-smoke is the observability CI gate: one traced s38417 sweep at
# reduced scale, read twice. While it runs, its live /metrics listener is
# scraped and the exposition must carry the per-stage counter, gauge and
# histogram families — PromSink, the -metrics flag and the hot-path
# instrumentation outside of unit tests. When it is done, tracestat reads
# the NDJSON trace and exits non-zero if any span is unbalanced.
# $(TRACE_OUT) and $(TRACE_SCRAPE) are left behind for archiving.
trace-smoke:
	$(TRACED_RUN) -trace $(TRACE_OUT) -progress -metrics localhost:9341 & \
	pid=$$!; \
	scraped=0; \
	for i in $$(seq 1 600); do \
		if curl -sf http://localhost:9341/metrics -o $(TRACE_SCRAPE) 2>/dev/null && \
			grep -q tpilayout_route_net_ns $(TRACE_SCRAPE) && \
			grep -q tpilayout_atpg_podem_ns $(TRACE_SCRAPE); then scraped=1; break; fi; \
		sleep 0.2; \
	done; \
	wait $$pid || { echo "trace-smoke: sweep failed"; exit 1; }; \
	test $$scraped = 1 || { echo "trace-smoke: live scrape never saw the histogram families"; exit 1; }; \
	for fam in tpilayout_spans_total tpilayout_stage_duration_ns_bucket tpilayout_stage_last_duration_ns \
		tpilayout_atpg_podem_ns tpilayout_atpg_sim_batch_ns tpilayout_place_fm_cut_delta tpilayout_route_net_ns; do \
		grep -q "$$fam" $(TRACE_SCRAPE) || { echo "trace-smoke: missing family $$fam"; cat $(TRACE_SCRAPE); exit 1; }; \
	done; \
	echo "trace-smoke: live scrape OK, all families present"
	go run ./cmd/tracestat $(TRACE_OUT)

# trace-diff exercises the run comparison, tracestat BASE CUR, end to
# end: the traced sweep is made a second time and tracestat compares the
# two fresh traces of one seed on one host stage by stage, so no committed trace
# has to be re-recorded when the flow changes (timing across commits is
# `bash bench/run.sh`). -normalize compares each stage's share of its
# run and -min-dur keeps sub-100ms stages out of the gate; exit 1 names
# the regressed stage and TP level.
trace-diff: trace-smoke
	$(TRACED_RUN) -trace $(TRACE_RERUN)
	go run ./cmd/tracestat -normalize -max-regress $(MAX_REGRESS) -min-dur 100ms $(TRACE_OUT) $(TRACE_RERUN)

# daemon-smoke is the daemon CI gate: one real tpid — durable, JSON logs,
# per-run profiling — walked through four phases over curl. Every failure
# message names its phase.
#   submit:    a reduced-scale s38417c sweep is submitted under a client
#              X-Request-ID; the result must come back 200 with complete
#              tables, an identical resubmission must be a cache hit, and
#              /metrics must expose the service-level families next to
#              the flow ones.
#   correlate: the X-Request-ID was honoured, and the job's one run_id is
#              visible in the status API, the JSON log, the /debug/flight
#              dump (which tracestat -flight must parse, with service and
#              log sections) and the per-tenant SLO families; SIGQUIT
#              dumps the flight recorder (into the data dir, as a durable
#              daemon does) WITHOUT killing the daemon.
#   history:   the same budgeted job (atpg_budget_ms makes it
#              non-cacheable, so the repeat executes a real flow) runs
#              twice; both runs must be archived, the archived trace must
#              gunzip and pass tracestat via stdin, the two downloaded
#              traces must compare clean with `tracestat BASE CUR` (the
#              one run comparison; -max-regress 75 keeps shared-CI timing
#              jitter out of the gate), and the captured CPU profile
#              carries run_id/stage pprof labels.
#   drain:     SIGTERM drains the daemon and it exits 0.
daemon-smoke:
	go build -o tpid-smoke ./cmd/tpid
	go build -o tracestat-smoke ./cmd/tracestat
	@set -e; \
	url=http://localhost:9352; phase=boot; \
	fail() { echo "daemon-smoke[$$phase]: $$1"; shift; "$$@" || true; exit 1; }; \
	field() { sed -n "s/.*\"$$1\": \"\([^\"]*\)\".*/\1/p"; }; \
	await_result() { \
		for i in $$(seq 1 600); do \
			curl -sf $$url/v1/jobs/$$1/result -o $$2 2>/dev/null && return 0; sleep 0.5; \
		done; return 1; \
	}; \
	rm -rf daemon-smoke-data; \
	./tpid-smoke -addr localhost:9352 -workers 2 -flow-workers 2 -data-dir daemon-smoke-data \
		-log-format json -profile-runs >daemon-smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 100); do \
		curl -sf $$url/healthz >/dev/null 2>&1 && { up=1; break; }; sleep 0.1; \
	done; \
	test $$up = 1 || fail "tpid never came up" cat daemon-smoke.log; \
	\
	phase=submit; \
	body='{"tenant":"smoke","circuit":{"spec":"s38417c","scale":0.05},"tp_levels":[0,2],"flow":{"experiment":"s38417c"}}'; \
	id=$$(curl -sf -X POST -H 'X-Request-ID: daemon-smoke-001' -d "$$body" $$url/v1/jobs | field id); \
	test -n "$$id" || fail "submission rejected"; \
	echo "daemon-smoke[$$phase]: job $$id submitted"; \
	await_result $$id daemon-smoke-result.json || fail "result never became ready"; \
	grep -q '"complete": true' daemon-smoke-result.json || fail "sweep incomplete" cat daemon-smoke-result.json; \
	grep -q 'Table 1: Impact of TPI' daemon-smoke-result.json || fail "result carries no Table 1"; \
	curl -sf -X POST -d "$$body" $$url/v1/jobs | grep -q '"cache_hit": true' \
		|| fail "identical resubmission was not a cache hit"; \
	curl -sf $$url/metrics -o daemon-smoke-metrics.txt; \
	for fam in tpid_service_jobs_submitted_total tpid_service_flow_runs_total tpid_service_jobs_done_total \
		tpid_service_cache_hit_jobs_total tpid_service_queue_wait_ns tpid_spans_total; do \
		grep -q "$$fam" daemon-smoke-metrics.txt || fail "/metrics missing $$fam" cat daemon-smoke-metrics.txt; \
	done; \
	\
	phase=correlate; \
	test "$$id" = daemon-smoke-001 || fail "X-Request-ID not honored (got '$$id')"; \
	run=$$(curl -sf $$url/v1/jobs/$$id | field run_id); \
	test -n "$$run" || fail "status carries no run_id"; \
	echo "daemon-smoke[$$phase]: job $$id ran as $$run"; \
	grep -q "\"run_id\":\"$$run\"" daemon-smoke.log || fail "JSON log not correlated with $$run" tail -5 daemon-smoke.log; \
	curl -sf $$url/debug/flight -o daemon-smoke-flight.ndjson; \
	grep -q "$$run" daemon-smoke-flight.ndjson || fail "flight dump not correlated with $$run"; \
	./tracestat-smoke -flight daemon-smoke-flight.ndjson >daemon-smoke-flight-stat.txt \
		|| fail "tracestat rejected the flight dump" cat daemon-smoke-flight-stat.txt; \
	grep -q 'service: .* observation' daemon-smoke-flight-stat.txt || fail "no service section" cat daemon-smoke-flight-stat.txt; \
	grep -q 'logs: .* record' daemon-smoke-flight-stat.txt || fail "no log section" cat daemon-smoke-flight-stat.txt; \
	grep -q 'tpid_service_tenant_jobs_done_total{stage="service",tenant="smoke"}' daemon-smoke-metrics.txt \
		|| fail "tenant SLO family missing from /metrics"; \
	kill -QUIT $$pid; sleep 1; \
	kill -0 $$pid 2>/dev/null || fail "SIGQUIT killed the daemon"; \
	test -s daemon-smoke-data/flight-sigquit-1.ndjson && grep -q '"reason":"sigquit"' daemon-smoke.log \
		|| fail "SIGQUIT produced no dump" tail -5 daemon-smoke.log; \
	\
	phase=history; \
	body='{"tenant":"smoke","circuit":{"spec":"s38417c","scale":0.05},"tp_levels":[0,2],"flow":{"experiment":"s38417c","atpg_budget_ms":600000}}'; \
	for attempt in 1 2; do \
		id=$$(curl -sf -X POST -d "$$body" $$url/v1/jobs | field id); \
		test -n "$$id" || fail "submission $$attempt rejected"; \
		await_result $$id /dev/null || fail "job $$attempt never finished"; \
		run=$$(curl -sf $$url/v1/jobs/$$id | field run_id); \
		test -n "$$run" || fail "job $$attempt carries no run_id (cache hit?)"; \
		arch=0; for i in $$(seq 1 100); do \
			curl -sf $$url/v1/runs/$$run -o daemon-smoke-run$$attempt.json 2>/dev/null && { arch=1; break; }; sleep 0.1; \
		done; \
		test $$arch = 1 || fail "run $$run never archived"; \
		curl -sf $$url/v1/runs/$$run/trace -o daemon-smoke-run$$attempt.trace.gz || fail "run $$run has no archived trace"; \
		echo "daemon-smoke[$$phase]: run $$attempt archived as $$run"; \
	done; \
	gunzip -c daemon-smoke-run2.trace.gz | ./tracestat-smoke - >daemon-smoke-trace-stat.txt \
		|| fail "archived trace failed tracestat" cat daemon-smoke-trace-stat.txt; \
	./tracestat-smoke -normalize -max-regress 75 -min-dur 100ms daemon-smoke-run1.trace.gz daemon-smoke-run2.trace.gz \
		>daemon-smoke-trace-diff.txt || fail "the rerun's trace does not compare clean" cat daemon-smoke-trace-diff.txt; \
	curl -sf $$url/metrics -o daemon-smoke-metrics.txt; \
	grep -q 'tpid_service_runs_archived_total' daemon-smoke-metrics.txt || fail "archive counters missing from /metrics"; \
	curl -sf $$url/v1/runs/$$run/profile -o daemon-smoke.pprof || fail "no archived CPU profile"; \
	gunzip -c daemon-smoke.pprof | grep -aq run_id || fail "profile lacks run_id label"; \
	gunzip -c daemon-smoke.pprof | grep -aq stage || fail "profile lacks stage label"; \
	\
	phase=drain; \
	kill -TERM $$pid; wait $$pid || fail "drain exited non-zero" tail -5 daemon-smoke.log; \
	trap - EXIT; \
	echo "daemon-smoke: submit, correlate, history, drain all OK"

# chaos runs the seeded fault-injection recovery suite under the race
# detector: 200 seeds of level panics, journal append faults, abrupt
# kills, cancels, and torn segment tails, each followed by a restart
# that must satisfy the recovery invariants (no double retirement, no
# lost jobs on an intact journal, clean fold).
# Three passes: the failures this suite exists for are races, and a race
# reintroduced must not get through on one lucky schedule.
chaos:
	go test -race -run 'TestChaosRecoveryInvariants' -count=3 ./internal/service/
