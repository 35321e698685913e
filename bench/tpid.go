package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"tpilayout/internal/service"
	"tpilayout/internal/telemetry"
)

// daemon is an in-process tpid: the real service on one worker behind a
// loopback HTTP listener, journaling to dir. The single closed-loop client
// lives in the same process, so rusage covers both ends and only one of
// them is ever busy.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
}

func openDaemon(dir string, sink *memSink) (*daemon, error) {
	opt := service.Options{Workers: 1, FlowWorkers: 1, DataDir: dir}
	if sink != nil {
		opt.ExtraSinks = []telemetry.Sink{sink}
	}
	srv, err := service.Open(opt)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, ts: httptest.NewServer(srv)}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := d.ts.Client().Get(d.ts.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("tpid not ready after 60 s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) close() {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
}

// getJSON fetches path into v and returns the status code and body size.
func (d *daemon) getJSON(path string, v any) (int, int, error) {
	resp, err := d.ts.Client().Get(d.ts.URL + path)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(body), err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, len(body), nil
	}
	return resp.StatusCode, len(body), json.Unmarshal(body, v)
}

// waitDone reads the job's SSE stream to its terminal frame and returns
// the status that frame carries and the number of span events before it.
func (d *daemon) waitDone(id string) (st service.JobStatus, events int, err error) {
	resp, err := d.ts.Client().Get(d.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, 0, fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			done = true
		case done && strings.HasPrefix(line, "data: "):
			return st, events, json.Unmarshal([]byte(line[len("data: "):]), &st)
		case strings.HasPrefix(line, "data: "):
			events++
		}
	}
	if err := sc.Err(); err != nil {
		return st, events, err
	}
	return st, events, fmt.Errorf("event stream ended without a done frame")
}

// jobSample is what the client and the job's status say about one op.
type jobSample struct {
	kind                         opKind
	totalMS, submitMS, resultMS  float64
	queueWaitMS, runMS, resultKB float64
	sseEvents                    int
}

// pending is a submitted job whose result has not been fetched yet.
type pending struct {
	index  int // op index, -1 for a warm-up
	o      op
	t0     time.Time
	code   int
	st     service.JobStatus
	submit time.Duration
	err    error
}

// tpidRunner drives the daemon over HTTP the way a client does: POST the
// job, follow /events to the done frame, GET the result.
type tpidRunner struct {
	s       *script
	q       *quality
	blocks  *blockMeter
	sink    *memSink
	dir     string
	texts   []string          // each circuit as .bench text
	bodies  map[string][]byte // request body per (circuit, level list)
	d       *daemon
	base    service.Stats // counters after the warm-up
	samples []jobSample
	heapMB  float64 // retained heap after the warm-up (traced pass)
	setups  int
}

func newTpidRunner(s *script, q *quality, blocks *blockMeter, sink *memSink, dir string) *tpidRunner {
	return &tpidRunner{s: s, q: q, blocks: blocks, sink: sink, dir: dir}
}

func bodyKey(o op) string { return fmt.Sprintf("%d/%v", o.Circuit, o.Levels) }

// dataDir is the journal directory of the n-th set-up: each starts empty.
func (r *tpidRunner) dataDir(n int) string { return fmt.Sprintf("%s-%d", r.dir, n) }

func (r *tpidRunner) setUp() error {
	// tpid only ever sees the generated circuit as .bench text.
	r.bodies = map[string][]byte{}
	r.texts = make([]string, len(r.s.Circuits))
	for i, c := range r.s.Circuits {
		var err error
		if r.texts[i], err = c.text(); err != nil {
			return err
		}
	}
	for _, o := range append(append([]op(nil), r.s.Warmup...), r.s.Ops...) {
		if err := r.addBody(o); err != nil {
			return err
		}
	}

	r.setups++
	d, err := openDaemon(r.dataDir(r.setups), r.sink)
	if err != nil {
		return err
	}
	r.d = d
	for _, o := range r.s.Warmup {
		if _, err := r.finish(r.post(-1, o)); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.Kind, err)
		}
	}
	if code, _, err := d.getJSON("/v1/stats", &r.base); err != nil || code != http.StatusOK {
		return fmt.Errorf("/v1/stats answered %d: %v", code, err)
	}
	if r.sink != nil {
		r.heapMB = heapInuseMB()
	}
	return nil
}

// addBody renders the op's job request once; the measured phase only
// sends bytes.
func (r *tpidRunner) addBody(o op) error {
	if _, ok := r.bodies[bodyKey(o)]; ok {
		return nil
	}
	body, err := json.Marshal(service.JobRequest{
		Tenant:   "bench",
		Circuit:  service.CircuitSpec{Bench: r.texts[o.Circuit], Name: fmt.Sprintf("%s-%d", r.s.Preset, o.Circuit)},
		TPLevels: o.Levels,
		Flow:     service.FlowConfig{Experiment: r.s.Preset, SkipATPG: r.s.SkipATPG},
	})
	r.bodies[bodyKey(o)] = body
	return err
}

func (r *tpidRunner) tearDown() {
	if r.d != nil {
		r.d.close()
		r.d = nil
	}
	for i := 1; i <= r.setups; i++ {
		os.RemoveAll(r.dataDir(i))
	}
}

// post submits one op's job.
func (r *tpidRunner) post(index int, o op) *pending {
	p := &pending{index: index, o: o, t0: time.Now()}
	resp, err := r.d.ts.Client().Post(r.d.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(r.bodies[bodyKey(o)]))
	if err != nil {
		p.err = err
		return p
	}
	defer resp.Body.Close()
	p.code = resp.StatusCode
	p.err = json.NewDecoder(resp.Body).Decode(&p.st)
	p.submit = time.Since(p.t0)
	return p
}

// finish follows a submitted job to its result, checks every scripted
// code and flag, and returns the op's latency from its POST.
func (r *tpidRunner) finish(p *pending) (float64, error) {
	if p.err != nil {
		return 0, p.err
	}
	kind := p.o.Kind
	wantCode := http.StatusAccepted
	if kind == opHit {
		wantCode = http.StatusOK
	}
	if p.code != wantCode || p.st.CacheHit != (kind == opHit) || p.st.Coalesced != (kind == opCoalesced) {
		return 0, fmt.Errorf("submit answered %d cache_hit=%v coalesced=%v", p.code, p.st.CacheHit, p.st.Coalesced)
	}
	final, sse := p.st, 0
	if kind != opHit {
		var err error
		if final, sse, err = r.d.waitDone(p.st.ID); err != nil {
			return 0, err
		}
	}
	wantResumed := int64(0)
	if kind == opExtend {
		wantResumed = int64(len(r.s.First))
	}
	if final.State != service.StateDone || final.ResumedLevels != wantResumed {
		return 0, fmt.Errorf("job ended %s (%s) with %d resumed levels, want done with %d", final.State, final.Error, final.ResumedLevels, wantResumed)
	}
	var res service.JobResult
	t1 := time.Now()
	code, size, err := r.d.getJSON("/v1/jobs/"+p.st.ID+"/result", &res)
	now := time.Now()
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK || !res.Complete || res.CacheHit != (kind == opHit) {
		return 0, fmt.Errorf("result answered %d complete=%v cache_hit=%v", code, res.Complete, res.CacheHit)
	}
	for _, lv := range res.Levels {
		if !lv.OK {
			return 0, fmt.Errorf("level %g%% not ok: %s", lv.TPPercent, lv.Error)
		}
	}
	if err := checkRows(res.Rows, p.o.Levels, !r.s.SkipATPG); err != nil {
		return 0, err
	}
	if err := r.q.add(p.index, p.o.Circuit, p.o.Levels, res.Rows, !r.s.SkipATPG, res.Table1, res.Table2, res.Table3); err != nil {
		return 0, err
	}
	total := ms(now.Sub(p.t0))
	if p.index >= 0 {
		r.samples = append(r.samples, jobSample{
			kind: kind, totalMS: total, submitMS: ms(p.submit), resultMS: ms(now.Sub(t1)), resultKB: float64(size) / 1e3,
			queueWaitMS: between(final.CreatedAt, final.StartedAt), runMS: between(final.StartedAt, final.FinishedAt), sseEvents: sse,
		})
	}
	return total, nil
}

// between is the milliseconds from one JobStatus timestamp to another.
func between(from, to string) float64 {
	a, errA := time.Parse(time.RFC3339Nano, from)
	b, errB := time.Parse(time.RFC3339Nano, to)
	if errA != nil || errB != nil {
		return 0
	}
	return ms(b.Sub(a))
}

func (r *tpidRunner) measure() (opMS []float64, failures []string) {
	ops := r.s.Ops
	r.blocks.begin()
	for i := 0; i < len(ops); i++ {
		batch := []*pending{r.post(i, ops[i])}
		// The coalesced twin goes out right after the cold job's 202,
		// while that job's flow is still running.
		if ops[i].Kind == opCold && i+1 < len(ops) && ops[i+1].Kind == opCoalesced {
			i++
			batch = append(batch, r.post(i, ops[i]))
		}
		for _, p := range batch {
			lat, err := r.finish(p)
			r.blocks.opDone()
			if err != nil {
				failures = append(failures, fmt.Sprintf("op %d (%s circuit %d): %v", p.index, p.o.Kind, p.o.Circuit, err))
				continue
			}
			opMS = append(opMS, lat)
		}
	}

	// The daemon's own counters must have moved by exactly the script.
	var now service.Stats
	if code, _, err := r.d.getJSON("/v1/stats", &now); err != nil || code != http.StatusOK {
		return opMS, append(failures, fmt.Sprintf("/v1/stats answered %d: %v", code, err))
	}
	got := expectedStats{now.FlowRuns - r.base.FlowRuns, now.LevelsRun - r.base.LevelsRun,
		now.LevelsResumed - r.base.LevelsResumed, now.CacheHits - r.base.CacheHits}
	if want := r.s.expectedStats(); got != want {
		failures = append(failures, fmt.Sprintf("/v1/stats moved by %+v, the script says %+v", got, want))
	}
	if bad := now.JobsFailed + now.JobsCanceled + now.Rejected + now.JournalErrors + now.ArchiveErrors + now.Retries; bad != 0 {
		failures = append(failures, fmt.Sprintf("/v1/stats reports failures: %+v", now))
	}
	return opMS, failures
}

// layerMetrics splits the op latency the way the service sees it, then
// kills the daemon and times its recovery from the journal.
func (r *tpidRunner) layerMetrics(res *result) {
	l := res.layer
	pick := func(field func(jobSample) float64, kinds ...opKind) []float64 {
		var vs []float64
		for _, s := range r.samples {
			for _, k := range kinds {
				if s.kind == k {
					vs = append(vs, field(s))
				}
			}
		}
		return vs
	}
	all := []opKind{opCold, opCoalesced, opExtend, opHit}
	ran := []opKind{opCold, opExtend} // the ops that executed a flow
	total := func(s jobSample) float64 { return s.totalMS }
	l["service.submit_ms"] = median(pick(func(s jobSample) float64 { return s.submitMS }, all...))
	l["service.result_ms"] = median(pick(func(s jobSample) float64 { return s.resultMS }, all...))
	l["service.result_kb"] = median(pick(func(s jobSample) float64 { return s.resultKB }, all...))
	l["service.queue_wait_ms"] = median(pick(func(s jobSample) float64 { return s.queueWaitMS }, ran...))
	l["service.run_ms"] = median(pick(func(s jobSample) float64 { return s.runMS }, ran...))
	l["service.tax_ms"] = median(pick(func(s jobSample) float64 { return s.totalMS - s.runMS }, ran...))
	l["service.sse_events_per_job"] = mean(pick(func(s jobSample) float64 { return float64(s.sseEvents) }, ran...))
	l["service.cold_p50_ms"] = median(pick(total, opCold))
	l["service.coalesced_p50_ms"] = median(pick(total, opCoalesced))
	l["service.extend_p50_ms"] = median(pick(total, opExtend))
	l["service.hit_p50_ms"] = median(pick(total, opHit))
	l["service.hit_p90_ms"] = percentile(pick(total, opHit), 90)
	l["service.heap_mb_per_job"] = (heapInuseMB() - r.heapMB) / res.ops()

	var now service.Stats
	r.d.getJSON("/v1/stats", &now)
	l["service.flow_runs"] = float64(now.FlowRuns - r.base.FlowRuns)
	l["service.levels_run"] = float64(now.LevelsRun - r.base.LevelsRun)
	l["service.levels_resumed"] = float64(now.LevelsResumed - r.base.LevelsResumed)
	l["service.cache_hits"] = float64(now.CacheHits - r.base.CacheHits)
	l["service.dedupe_ratio"] = 1 - ratio(l["service.levels_run"], float64(r.s.levelsRequested()))
	circuitgenMetrics(res, r.s.Circuits)

	// Crash and recover: one more job is accepted, then Kill stops journal
	// writes at once, as SIGKILL would. A new daemon on the same directory
	// must replay the journal, re-queue that job and finish it.
	crash := op{Kind: opCold, Circuit: r.s.Ops[0].Circuit, Levels: []float64{2.5}}
	if err := r.addBody(crash); err != nil {
		res.failures = append(res.failures, "recovery: "+err.Error())
		return
	}
	inFlight := r.post(-1, crash)
	dir := r.dataDir(r.setups)
	r.d.srv.Kill()
	r.d.ts.Close()
	r.d = nil
	if r.s.Workload == wTpidCold {
		storeMetrics(res, dir, r.sink.since(0))
	}
	t0 := time.Now()
	d, err := openDaemon(dir, nil)
	if err != nil {
		res.failures = append(res.failures, "recovery: "+err.Error())
		return
	}
	l["service.recover_ms"] = ms(time.Since(t0))
	r.d = d
	d.getJSON("/v1/stats", &now)
	l["service.replayed_jobs"] = float64(now.ReplayedJobs)
	if inFlight.err != nil || inFlight.code != http.StatusAccepted {
		res.failures = append(res.failures, fmt.Sprintf("recovery: crash job answered %d: %v", inFlight.code, inFlight.err))
	} else if st, _, err := d.waitDone(inFlight.st.ID); err != nil || st.State != service.StateDone {
		res.failures = append(res.failures, fmt.Sprintf("recovery: replayed job ended %q: %v", st.State, err))
	}
}
