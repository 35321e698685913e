package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
	"tpilayout/internal/telemetry"
	"tpilayout/internal/tracecmp"
	"tpilayout/internal/trachive"
)

// storeMetrics calls tpid's stores directly: the journal (with and without
// fsync, and a reopen of the journal the killed daemon left in dataDir),
// the run archive and the regression sentinel's diff, the last two fed one
// recorded sweep from events.
func storeMetrics(res *result, dataDir string, events []telemetry.Event) {
	l := res.layer
	fail := func(what string, err error) {
		res.failures = append(res.failures, fmt.Sprintf("stores: %s: %v", what, err))
	}
	tmp := filepath.Join(dataDir, "stores")
	defer os.RemoveAll(tmp)

	record := make([]byte, 1<<10)
	appendUS := func(name string, n int, noSync bool) float64 {
		j, _, err := journal.Open(filepath.Join(tmp, name), journal.Options{NoSync: noSync})
		if err != nil {
			fail(name, err)
			return 0
		}
		defer j.Close()
		us := make([]float64, n)
		for i := range us {
			t0 := time.Now()
			if err := j.Append(journal.TypeLevelDone, record); err != nil {
				fail(name, err)
				return 0
			}
			us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		return median(us)
	}
	l["journal.append_us"] = appendUS("sync", 200, false)
	l["journal.append_nosync_us"] = appendUS("nosync", 2000, true)

	t0 := time.Now()
	j, _, err := journal.Open(dataDir, journal.Options{})
	if err != nil {
		fail("reopening the daemon's journal", err)
	} else {
		l["journal.open_ms"] = ms(time.Since(t0))
		l["journal.bytes_per_job"] = float64(j.Size()) / res.ops()
		j.Close()
	}

	// One recorded sweep: everything up to the first sweep span's end.
	var sweep []telemetry.Event
	for i, e := range events {
		if e.Type == telemetry.EventSpanEnd && e.Stage == flow.StageSweep {
			sweep = events[:i+1]
			break
		}
	}
	if sweep == nil {
		fail("recorded sweep", fmt.Errorf("no sweep span among %d events", len(events)))
		return
	}
	arch, err := trachive.Open(filepath.Join(tmp, "runs"), trachive.Options{})
	if err != nil {
		fail("trachive.Open", err)
		return
	}
	defer arch.Close()
	const reps = 20
	put, diff := make([]float64, reps), make([]float64, reps)
	for i := range put {
		meta := &trachive.Meta{RunID: fmt.Sprintf("bench-%d", i), State: "done"}
		t0 := time.Now()
		if err := arch.Put(meta, sweep, nil); err != nil {
			fail("Archive.Put", err)
			return
		}
		put[i] = ms(time.Since(t0))
		l["trachive.bytes_per_run"] = float64(meta.TraceBytes)

		t0 = time.Now()
		side, err := tracecmp.FromTrace(telemetry.TraceFromEvents(sweep))
		if err != nil {
			fail("tracecmp.FromTrace", err)
			return
		}
		tracecmp.Diff(side, side, tracecmp.Options{MaxRegressPct: 25, HardRegressPct: 150, Normalize: true})
		diff[i] = ms(time.Since(t0))
	}
	l["trachive.put_ms"] = median(put)
	l["tracecmp.diff_ms"] = median(diff)
}
