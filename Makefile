# Convenience targets; everything is plain `go` underneath.

.PHONY: test race daemon-smoke

test:
	go build ./... && go vet ./... && go test ./...

race:
	go test -race ./...

# daemon-smoke is the daemon CI gate: real tpid processes walked through
# five phases over curl. Every failure message names its phase. The first
# four run on one tpid — durable, JSON logs, per-run profiling:
#   submit:    a reduced-scale s38417c sweep is submitted under a client
#              X-Request-ID; the result must come back 200 with complete
#              tables, an identical resubmission must be a cache hit, and
#              /metrics must expose the service-level families next to
#              the flow ones: spans, per-stage duration histogram and
#              last-duration gauge, PODEM and simulation-batch latency,
#              FM cut delta and per-net routing time.
#   correlate: the X-Request-ID was honoured, and the job's one run_id is
#              visible in the status API, the JSON log and every data:
#              frame of the job's /events; the README pipeline (/events
#              up to the done frame, data: prefixes stripped, into
#              `tracestat -`) exits 0 on the finished run; /metrics splits
#              the terminal job counter by tenant; SIGQUIT writes a
#              goroutine profile into the log WITHOUT killing the daemon.
#   history:   the same flow runs twice, under max_chain_length 99
#              and then 98: either way s38417c x0.05 is one chain and
#              gives the submit phase's tables, but each key is new, so
#              neither the cache nor a checkpoint answers it and both
#              execute a real flow; both runs must be archived. The first job's
#              /events, captured live from its submission on, must `cmp`
#              equal to its /events read once its run is archived, which
#              the archive then serves as the one copy of its events. The
#              archived trace must
#              gunzip and pass tracestat via stdin, the two downloaded
#              traces must compare clean with `tracestat BASE CUR` (the
#              one run comparison; -max-regress 75 keeps shared-CI timing
#              jitter out of the gate), and the captured CPU profile
#              carries run_id/stage pprof labels.
#   drain:     SIGTERM drains the daemon and it exits 0.
#   crash:     a second tpid (-workers 1 -flow-workers 1) on a fresh data
#              dir takes the golden sweep (s38417c x0.05, levels 0/2/5) and
#              is SIGKILLed once a level file is in its levels/ while the
#              job's file in jobs/ is not retired yet; restarted on the
#              same dir, it must
#              finish the job by itself with resumed_levels >= 1,
#              levels_run + levels_resumed = 3 and replayed_jobs = 1 on
#              /v1/stats, and tables byte-identical to
#              internal/testdata/golden/sweep_s38417c.golden: a crash costs
#              work, not correctness.
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
		tpid_service_cache_hit_jobs_total tpid_service_queue_wait_ns tpid_spans_total \
		tpid_stage_duration_ns_bucket tpid_stage_last_duration_ns tpid_atpg_podem_ns \
		tpid_atpg_sim_batch_ns tpid_place_fm_cut_delta tpid_route_net_ns; do \
		grep -q "$$fam" daemon-smoke-metrics.txt || fail "/metrics missing $$fam" cat daemon-smoke-metrics.txt; \
	done; \
	\
	phase=correlate; \
	test "$$id" = daemon-smoke-001 || fail "X-Request-ID not honored (got '$$id')"; \
	run=$$(curl -sf $$url/v1/jobs/$$id | field run_id); \
	test -n "$$run" || fail "status carries no run_id"; \
	echo "daemon-smoke[$$phase]: job $$id ran as $$run"; \
	grep -q "\"run_id\":\"$$run\"" daemon-smoke.log || fail "JSON log not correlated with $$run" tail -5 daemon-smoke.log; \
	curl -sfN $$url/v1/jobs/$$id/events -o daemon-smoke-events.txt || fail "no /events for $$id"; \
	grep -q '^data: {"ev":' daemon-smoke-events.txt || fail "/events carried no span frames" cat daemon-smoke-events.txt; \
	! grep '^data: ' daemon-smoke-events.txt | grep -v "\"run_id\":\"$$run\"" >/dev/null \
		|| fail "/events frames without run_id $$run" grep -v "\"run_id\":\"$$run\"" daemon-smoke-events.txt; \
	curl -sN $$url/v1/jobs/$$id/events | sed -n '/^event: done/q;s/^data: //p' \
		| ./tracestat-smoke - >daemon-smoke-events-stat.txt \
		|| fail "tracestat rejected the finished run's /events" cat daemon-smoke-events-stat.txt; \
	grep -q 'tpid_service_jobs_done_total{stage="service",tenant="smoke"}' daemon-smoke-metrics.txt \
		|| fail "per-tenant job counter missing from /metrics"; \
	kill -QUIT $$pid; sleep 1; \
	kill -0 $$pid 2>/dev/null || fail "SIGQUIT killed the daemon"; \
	grep -q '^goroutine profile: total' daemon-smoke.log || fail "SIGQUIT wrote no goroutine profile" tail -5 daemon-smoke.log; \
	curl -sf $$url/healthz >/dev/null || fail "the daemon stopped serving after SIGQUIT"; \
	\
	phase=history; \
	for attempt in 1 2; do \
		body='{"tenant":"smoke","circuit":{"spec":"s38417c","scale":0.05},"tp_levels":[0,2],"flow":{"experiment":"s38417c","max_chain_length":'$$((100 - $$attempt))'}}'; \
		id=$$(curl -sf -X POST -d "$$body" $$url/v1/jobs | field id); \
		test -n "$$id" || fail "submission $$attempt rejected"; \
		if test $$attempt = 1; then curl -sN $$url/v1/jobs/$$id/events >daemon-smoke-events-live.txt & evpid=$$!; fi; \
		await_result $$id /dev/null || fail "job $$attempt never finished"; \
		run=$$(curl -sf $$url/v1/jobs/$$id | field run_id); \
		test -n "$$run" || fail "job $$attempt carries no run_id (cache hit?)"; \
		arch=0; for i in $$(seq 1 100); do \
			curl -sf $$url/v1/runs/$$run -o daemon-smoke-run$$attempt.json 2>/dev/null && { arch=1; break; }; sleep 0.1; \
		done; \
		test $$arch = 1 || fail "run $$run never archived"; \
		curl -sf $$url/v1/runs/$$run/trace -o daemon-smoke-run$$attempt.trace.gz || fail "run $$run has no archived trace"; \
		if test $$attempt = 1; then \
			wait $$evpid || fail "the live /events capture failed"; \
			grep -q '^id: 0$$' daemon-smoke-events-live.txt || fail "the live /events carried no frames" cat daemon-smoke-events-live.txt; \
			curl -sfN $$url/v1/jobs/$$id/events -o daemon-smoke-events-archived.txt || fail "no /events for the archived run"; \
			cmp daemon-smoke-events-live.txt daemon-smoke-events-archived.txt \
				|| fail "the archived run's /events differs from its live stream" diff daemon-smoke-events-live.txt daemon-smoke-events-archived.txt; \
		fi; \
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
	\
	phase=crash; url=http://localhost:9353; \
	rm -rf daemon-smoke-crash-data; : >daemon-smoke-crash.log; \
	crash_start() { \
		./tpid-smoke -addr localhost:9353 -workers 1 -flow-workers 1 -data-dir daemon-smoke-crash-data \
			>>daemon-smoke-crash.log 2>&1 & pid=$$!; \
		up=0; for i in $$(seq 1 100); do \
			curl -sf $$url/readyz >/dev/null 2>&1 && { up=1; break; }; sleep 0.1; \
		done; \
		test $$up = 1 || fail "tpid never became ready" tail -5 daemon-smoke-crash.log; \
	}; \
	crash_start; \
	body='{"tenant":"crash","circuit":{"spec":"s38417c","scale":0.05},"tp_levels":[0,2,5],"flow":{"experiment":"s38417c"}}'; \
	id=$$(curl -sf -X POST -d "$$body" $$url/v1/jobs | field id); \
	test -n "$$id" || fail "submission rejected"; \
	ckpt=0; for i in $$(seq 1 6000); do \
		if ls daemon-smoke-crash-data/levels/*.json >/dev/null 2>&1; then \
			! grep -q '"state":' daemon-smoke-crash-data/jobs/$$id.json \
				|| fail "the sweep retired before the kill could land"; \
			ckpt=1; break; \
		fi; \
		sleep 0.05; \
	done; \
	test $$ckpt = 1 || fail "no level checkpoint ever reached levels/"; \
	kill -KILL $$pid; wait $$pid 2>/dev/null || true; \
	echo "daemon-smoke[$$phase]: job $$id SIGKILLed after its first level checkpoint"; \
	crash_start; \
	state=; for i in $$(seq 1 600); do \
		state=$$(curl -sf $$url/v1/jobs/$$id | field state); \
		case "$$state" in done|failed|canceled) break;; esac; sleep 0.5; \
	done; \
	curl -sf $$url/v1/jobs/$$id -o daemon-smoke-crash-status.json; \
	test "$$state" = done || fail "replayed job ended '$$state'" cat daemon-smoke-crash-status.json; \
	jq -e '.resumed_levels >= 1' daemon-smoke-crash-status.json >/dev/null \
		|| fail "no level was resumed from its checkpoint" cat daemon-smoke-crash-status.json; \
	curl -sf $$url/v1/jobs/$$id/result -o daemon-smoke-crash-result.json || fail "no result after the restart"; \
	grep -q '"complete": true' daemon-smoke-crash-result.json || fail "resumed sweep incomplete" cat daemon-smoke-crash-result.json; \
	curl -sf $$url/v1/stats -o daemon-smoke-crash-stats.json; \
	jq -e '.levels_run + .levels_resumed == 3 and .replayed_jobs == 1' daemon-smoke-crash-stats.json >/dev/null \
		|| fail "levels run/resumed do not partition the 3 levels of one replayed job" cat daemon-smoke-crash-stats.json; \
	jq -j '.table1+"\n"+.table2+"\n"+.table3' daemon-smoke-crash-result.json \
		| cmp - internal/testdata/golden/sweep_s38417c.golden \
		|| fail "crash-resumed tables drifted from sweep_s38417c.golden"; \
	kill -TERM $$pid; wait $$pid || fail "drain after the restart exited non-zero" tail -5 daemon-smoke-crash.log; \
	trap - EXIT; \
	echo "daemon-smoke: submit, correlate, history, drain, crash all OK"
