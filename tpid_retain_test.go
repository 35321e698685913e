package tpilayout

// Memory gate for the TPI service daemon. tpid keeps up to RetainJobs
// finished jobs queryable; what each one holds is what the daemon's heap
// grows by per distinct circuit it has answered. A retired job must keep
// its answer (status, tables), not its run: not the parsed netlist, not
// the canonical .bench text of its request, not a telemetry buffer of
// its own, and not its run's events once the archive holds them. A
// daemon with a flight recorder, as tpid runs by default, must grow by
// no more per job than one without.

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
	"tpilayout/internal/telemetry"
)

func TestServiceRetainedHeapPerJob(t *testing.T) {
	const (
		maxPerJobMB  = 0.04
		maxFlightMB  = 0.02 // extra growth per job a flight recorder may cost
		flightEvents = 4096 // tpid's -flight-events default
	)
	cases := []struct {
		name string
		ring *telemetry.FlightRecorder
	}{
		{"no recorder", nil},
		{"4096-event flight recorder", telemetry.NewFlightRecorder(flightEvents)},
	}
	perJob := make([]float64, len(cases))
	for i, tc := range cases {
		perJob[i] = retainedHeapPerJob(t, tc.ring, flightEvents)
		t.Logf("%s: live heap grew by %.3f MB per retired job", tc.name, perJob[i])
		if perJob[i] >= maxPerJobMB {
			t.Fatalf("%s: live heap grew by %.3f MB per retired job, want < %.2f MB", tc.name, perJob[i], maxPerJobMB)
		}
	}
	if extra := perJob[1] - perJob[0]; extra > maxFlightMB {
		t.Fatalf("a flight recorder costs %.3f MB more per retired job (%.3f against %.3f MB), want at most %.2f MB",
			extra, perJob[1], perJob[0], maxFlightMB)
	}
}

// retainedHeapPerJob runs 20 distinct jobs through a durable in-process
// daemon, with ring as a flight recorder of ringEvents events when it is
// not nil, and returns the live heap growth per retired job, in MB.
// The archive is the one copy of a retired run's events, so until the
// ring is full it is their only growing holder in memory: the count
// starts once it is.
func retainedHeapPerJob(t *testing.T, ring *telemetry.FlightRecorder, ringEvents int) float64 {
	t.Helper()
	const jobs = 20
	var sinks []telemetry.Sink
	if ring != nil {
		sinks = append(sinks, ring)
	}
	srv, err := service.Open(service.Options{Workers: 1, FlowWorkers: 1, DataDir: t.TempDir(), Sinks: sinks})
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

	// Warm-up: the library, the archive, the first cache entries and a
	// full flight ring, whose slots each job's events then overwrite.
	seed := int64(0)
	for run(seed); ring != nil && ring.Len() < ringEvents; run(seed) {
		seed++
	}
	before := liveHeap()
	for range jobs {
		seed++
		run(seed)
	}
	return (liveHeap() - before) / jobs
}
