package service

// Incremental sweep mode through the service: request validation, the
// serialized artifact chain inside the checkpoint/retry driver, and
// crash-restart of an interrupted incremental sweep.

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
	"tpilayout/internal/netlist"
)

// jobBodyMode is jobBody with an explicit flow.sweep_mode.
func jobBodyMode(t *testing.T, tenant, mode string, levels ...float64) []byte {
	t.Helper()
	b, err := json.Marshal(JobRequest{
		Tenant:   tenant,
		Circuit:  CircuitSpec{Bench: testBench, Name: "tiny"},
		TPLevels: levels,
		Flow:     FlowConfig{SkipATPG: true, SweepMode: mode},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chainRecorder stubs Server.runLevelChained, recording the execution
// order and whether each link started cold (no prior artifacts).
type chainRecorder struct {
	mu   sync.Mutex
	ran  []float64
	cold []bool
}

func (cr *chainRecorder) hook(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64, prev *flow.LevelArtifacts) (flow.LevelResult, *flow.LevelArtifacts) {
	cr.mu.Lock()
	cr.ran = append(cr.ran, pct)
	cr.cold = append(cr.cold, prev == nil)
	cr.mu.Unlock()
	return flow.LevelResult{TPPercent: pct, Metrics: stubMetrics(pct)}, &flow.LevelArtifacts{}
}

func (cr *chainRecorder) executed() ([]float64, []bool) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return append([]float64(nil), cr.ran...), append([]bool(nil), cr.cold...)
}

// TestSweepModeBadRequest: an unknown flow.sweep_mode is a 400, named in
// the error body.
func TestSweepModeBadRequest(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	code, body := postJobCode(t, s, jobBodyMode(t, "acme", "bogus", 1))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "sweep mode") {
		t.Fatalf("sweep_mode=bogus: code=%d body=%s, want 400 naming the mode", code, body)
	}
}

// TestIncrementalChainOrder: an incremental job executes its levels
// serialized in ascending TP order — whatever the request order — with
// artifacts threaded link to link, while the result rows stay in input
// order.
func TestIncrementalChainOrder(t *testing.T) {
	rec := &chainRecorder{}
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	s.runLevelChained = rec.hook

	_, st := postJob(t, s, jobBodyMode(t, "acme", "incremental", 5, 0, 3))
	waitState(t, s, st.ID, StateDone)

	ran, cold := rec.executed()
	if !reflect.DeepEqual(ran, []float64{0, 3, 5}) {
		t.Fatalf("chain executed %v, want ascending [0 3 5]", ran)
	}
	if !reflect.DeepEqual(cold, []bool{true, false, false}) {
		t.Fatalf("cold starts = %v, want only the first link cold", cold)
	}
	_, res := getResult(t, s, st.ID)
	want := []flow.Metrics{stubMetrics(5), stubMetrics(0), stubMetrics(3)}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows not in input order:\ngot  %+v\nwant %+v", res.Rows, want)
	}
}

// TestKillResumesIncrementalSweep is the crash-restart scenario for the
// chain: a kill lands while the third link is in flight; the restarted
// daemon re-admits the job in INCREMENTAL mode (the journaled flow
// config pins it), answers the two checkpointed levels from the store,
// and cold-starts the chain at the one missing level — stitching a
// complete result. It then proves the checkpoint namespaces are
// mode-keyed in both directions.
func TestKillResumesIncrementalSweep(t *testing.T) {
	dir := t.TempDir()

	reached := make(chan struct{})
	s1 := openDurable(t, dir, Options{Workers: 1}, func(s *Server) {
		var once sync.Once
		s.runLevelChained = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64, prev *flow.LevelArtifacts) (flow.LevelResult, *flow.LevelArtifacts) {
			if pct == 2 {
				once.Do(func() { close(reached) })
				<-rn.ctx.Done() // the link a crash interrupts
				return flow.LevelResult{TPPercent: pct, Err: rn.ctx.Err()}, nil
			}
			return flow.LevelResult{TPPercent: pct, Metrics: stubMetrics(pct)}, &flow.LevelArtifacts{}
		}
	})

	_, st := postJob(t, s1, jobBodyMode(t, "acme", "incremental", 0, 1, 2))
	<-reached // levels 0 and 1 checkpointed under /incr; level 2 in flight
	s1.Kill()

	chainRec := &chainRecorder{}
	fullRec := &levelRecorder{}
	s2 := openDurable(t, dir, Options{Workers: 1}, func(s *Server) {
		s.runLevelChained = chainRec.hook
		s.runLevel = fullRec.hook
	})
	defer shutdown(t, s2)

	got := waitState(t, s2, st.ID, StateDone)
	ran, cold := chainRec.executed()
	if !reflect.DeepEqual(ran, []float64{2}) {
		t.Fatalf("restart re-executed levels %v, want only [2]", ran)
	}
	if !reflect.DeepEqual(cold, []bool{true}) {
		t.Fatalf("restarted link cold flags = %v, want [true] (artifacts are in-memory only)", cold)
	}
	if got.ResumedLevels != 2 {
		t.Fatalf("status resumed_levels = %d, want 2", got.ResumedLevels)
	}
	code, res := getResult(t, s2, st.ID)
	if code != http.StatusOK || !res.Complete {
		t.Fatalf("result after resume: code=%d complete=%v", code, res != nil && res.Complete)
	}
	want := []flow.Metrics{stubMetrics(0), stubMetrics(1), stubMetrics(2)}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("resumed rows differ from uninterrupted sweep:\ngot  %+v\nwant %+v", res.Rows, want)
	}

	// Same namespace, same mode: a new incremental mix resumes level 1
	// from its /incr checkpoint and runs only level 5.
	_, st2 := postJob(t, s2, jobBodyMode(t, "acme", "incremental", 1, 5))
	got2 := waitState(t, s2, st2.ID, StateDone)
	if ran, _ := chainRec.executed(); !reflect.DeepEqual(ran, []float64{2, 5}) {
		t.Fatalf("incremental resubmit executed %v, want [2 5] (level 1 checkpointed)", ran)
	}
	if got2.ResumedLevels != 1 {
		t.Fatalf("incremental resubmit resumed_levels = %d, want 1", got2.ResumedLevels)
	}

	// Cross-mode isolation: a FULL-mode sweep over the same circuit does
	// NOT see the incremental checkpoints — both its levels run fresh.
	_, st3 := postJob(t, s2, jobBody(t, "acme", 0, 3))
	got3 := waitState(t, s2, st3.ID, StateDone)
	if ran := fullRec.executed(); !reflect.DeepEqual(ran, []float64{0, 3}) {
		t.Fatalf("full-mode sweep executed %v, want [0 3] (no cross-mode resume)", ran)
	}
	if got3.ResumedLevels != 0 {
		t.Fatalf("full-mode sweep resumed_levels = %d, want 0", got3.ResumedLevels)
	}
}

// TestReplayToleratesRemovedFlowFields: admission rejects a flow field
// this build does not know, replay must not. A data dir whose pending
// job was accepted while flow.atpg_memo still existed re-queues that job
// (in the sweep mode it was admitted in) and finishes it with the tables
// a fresh submission gets, instead of retiring it failed-on-replay.
func TestReplayToleratesRemovedFlowFields(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(map[string]any{
		"job_id": "old-1", "tenant": "acme", "name": "tiny", "bench": testBench,
		"tp_levels": []float64{0, 2}, "created": "2026-08-08T13:07:25Z",
		"flow": map[string]any{"skip_atpg": true, "sweep_mode": "incremental", "atpg_memo": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.TypeAccepted, rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var chained atomic.Int32
	s := openDurable(t, dir, Options{Workers: 1}, func(s *Server) {
		inner := s.runLevelChained
		s.runLevelChained = func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64, prev *flow.LevelArtifacts) (flow.LevelResult, *flow.LevelArtifacts) {
			chained.Add(1)
			return inner(rn, base, cfg, pct, prev)
		}
	})
	defer shutdown(t, s)
	waitState(t, s, "old-1", StateDone)
	if n := s.Stats().ReplayedJobs; n != 1 {
		t.Fatalf("replayed_jobs = %d, want 1", n)
	}
	if n := chained.Load(); n != 2 {
		t.Fatalf("replayed job ran %d chained levels, want 2 (admitted as incremental)", n)
	}
	_, got := getResult(t, s, "old-1")

	fresh := New(Options{Workers: 1})
	defer shutdown(t, fresh)
	_, st := postJob(t, fresh, jobBodyMode(t, "acme", "incremental", 0, 2))
	waitState(t, fresh, st.ID, StateDone)
	_, want := getResult(t, fresh, st.ID)
	if got == nil || want == nil || !got.Complete || !want.Complete {
		t.Fatalf("results incomplete: replayed %+v, fresh %+v", got, want)
	}
	if got.Table1 != want.Table1 || got.Table2 != want.Table2 || got.Table3 != want.Table3 {
		t.Fatalf("replayed tables differ from a fresh submission:\n%s%s%s\nvs\n%s%s%s",
			got.Table1, got.Table2, got.Table3, want.Table1, want.Table2, want.Table3)
	}
}
