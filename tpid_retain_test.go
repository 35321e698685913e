package tpilayout

// Memory gate for the TPI service daemon. tpid keeps up to RetainJobs
// finished jobs queryable; what each one holds is what the daemon's heap
// grows by per distinct circuit it has answered. A retired job must keep
// its answer (status, tables), not its run: not the parsed netlist, not
// the canonical .bench text of its request, not a telemetry buffer of
// its own, and not its run's events once the archive holds them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/service"
	"tpilayout/internal/stdcell"
)

// TestServiceRetainedHeapPerJob runs 20 distinct jobs through a durable
// in-process daemon and gates the live heap growth per retired job.
func TestServiceRetainedHeapPerJob(t *testing.T) {
	const (
		maxPerJobMB = 0.04
		jobs        = 20
	)
	srv, err := service.Open(service.Options{Workers: 1, FlowWorkers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for !srv.Stats().Ready {
		time.Sleep(time.Millisecond)
	}

	// run sends one distinct wctrl1 x0.05 circuit, as .bench text, the way
	// the benchmark's tpid_cold does, and waits until its run is archived.
	run := func(seed int64) {
		t.Helper()
		spec, err := circuitgen.SpecByName("wctrl1")
		if err != nil {
			t.Fatal(err)
		}
		spec = spec.Scale(0.05)
		spec.Seed += seed
		n, err := circuitgen.Generate(spec, stdcell.Default())
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := circuitgen.WriteBench(&text, n); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(service.JobRequest{
			Tenant:   "gate",
			Circuit:  service.CircuitSpec{Bench: text.String(), Name: fmt.Sprintf("wctrl1-%d", seed)},
			TPLevels: []float64{0, 1, 2, 3, 4, 5},
			Flow:     service.FlowConfig{Experiment: "wctrl1", SkipATPG: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		archived := srv.Stats().RunsArchived
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %v", resp.StatusCode, err)
		}
		for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
			got := getJSON[service.JobStatus](t, ts.URL+"/v1/jobs/"+st.ID)
			switch got.State {
			case service.StateDone:
				if srv.Stats().RunsArchived > archived {
					return
				}
			case service.StateFailed, service.StateCanceled:
				t.Fatalf("job %s ended %s: %s", st.ID, got.State, got.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s not archived in time (state %s)", st.ID, got.State)
			}
		}
	}
	liveHeap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}

	// Warm-up: the library, the archive and the first cache entries.
	run(0)
	before := liveHeap()
	for seed := range int64(jobs) {
		run(seed + 1)
	}
	perJob := (liveHeap() - before) / jobs
	t.Logf("live heap grew by %.3f MB per retired job", perJob)
	if perJob >= maxPerJobMB {
		t.Fatalf("live heap grew by %.3f MB per retired job, want < %.2f MB", perJob, maxPerJobMB)
	}
}
