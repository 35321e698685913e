package tpilayout

import (
	"strings"
	"sync"
	"testing"

	"tpilayout/internal/telemetry"
)

// TestATPGWorkCounters runs golden-scale sweeps of s38417c and wctrl1 with
// a tracer and reads the ATPG span of every level: the region simulator
// propagated stems, the pre-screen proved some classes and no more than
// end untestable, the SAT residue pass's calls add up by outcome, and no
// SAT model was rejected by the PODEM simulator's check (a rejected cube
// would leave its class Aborted without a word). Every atpg.* counter is
// a function of (circuit, config): a sweep at Workers 2 must count, level
// by level, exactly what the serial sweep counts.
func TestATPGWorkCounters(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"s38417c", S38417Class().Scale(0.05)},
		{"wctrl1", WirelessCtrlClass().Scale(0.05)},
	} {
		t.Run(c.name, func(t *testing.T) {
			design, err := Generate(c.spec, DefaultLibrary())
			if err != nil {
				t.Fatal(err)
			}
			// counters sweeps the design on the given number of workers
			// and returns the atpg.* counters of each level's ATPG span.
			counters := func(workers int) map[float64]map[string]int64 {
				var mu sync.Mutex // levels in flight emit concurrently
				var events []telemetry.Event
				cfg := ExperimentConfig(c.name)
				cfg.Workers = workers
				cfg.Telemetry = NewTracer(telemetry.FuncSink(func(e telemetry.Event) {
					mu.Lock()
					events = append(events, e)
					mu.Unlock()
				}))
				if _, err := Sweep(design, cfg, goldenLevels); err != nil {
					t.Fatal(err)
				}
				out := map[float64]map[string]int64{}
				for _, s := range telemetry.TraceFromEvents(events).Spans {
					if s.Stage != "atpg" {
						continue
					}
					k := map[string]int64{}
					for name, v := range s.Counters {
						if strings.HasPrefix(name, "atpg.") {
							k[name] = v
						}
					}
					out[s.TPPercent] = k
				}
				if len(out) != len(goldenLevels) {
					t.Fatalf("workers %d: atpg spans for %d levels, want %d", workers, len(out), len(goldenLevels))
				}
				return out
			}
			serial, parallel := counters(1), counters(2)
			for _, tp := range goldenLevels {
				k := serial[tp]
				if k["atpg.sim_region_props"] <= 0 {
					t.Errorf("tp %.1f: atpg.sim_region_props = %d, want > 0", tp, k["atpg.sim_region_props"])
				}
				if p := k["atpg.prescreened_classes"]; p <= 0 || p > k["atpg.untestable_classes"] {
					t.Errorf("tp %.1f: atpg.prescreened_classes = %d, want in (0, %d], the untestable classes",
						tp, p, k["atpg.untestable_classes"])
				}
				if k["atpg.sat_cube_rejects"] != 0 {
					t.Errorf("tp %.1f: atpg.sat_cube_rejects = %d, want 0", tp, k["atpg.sat_cube_rejects"])
				}
				if sum := k["atpg.sat_resolved"] + k["atpg.sat_budget_outs"] + k["atpg.sat_cube_rejects"]; sum != k["atpg.sat_calls"] {
					t.Errorf("tp %.1f: SAT outcomes add up to %d, atpg.sat_calls = %d", tp, sum, k["atpg.sat_calls"])
				}
				t.Logf("tp %.1f: region props %d, extend blocked %d, prescreened %d of %d untestable, SAT calls %d (budget-outs %d, cube rejects %d)",
					tp, k["atpg.sim_region_props"], k["atpg.extend_blocked"], k["atpg.prescreened_classes"],
					k["atpg.untestable_classes"], k["atpg.sat_calls"], k["atpg.sat_budget_outs"], k["atpg.sat_cube_rejects"])
				for name, v := range k {
					if w, ok := parallel[tp][name]; !ok || w != v {
						t.Errorf("tp %.1f: %s = %d at Workers 1, %d at Workers 2", tp, name, v, w)
					}
				}
				for name, w := range parallel[tp] {
					if _, ok := k[name]; !ok {
						t.Errorf("tp %.1f: %s = %d at Workers 2, absent at Workers 1", tp, name, w)
					}
				}
			}
		})
	}
}
