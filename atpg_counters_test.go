package tpilayout

import (
	"testing"

	"tpilayout/internal/telemetry"
)

// TestATPGWorkCounters runs golden-scale sweeps of s38417c and wctrl1 with
// a tracer and reads the ATPG span of every level: the region simulator
// propagated stems, the SAT residue pass's calls add up by outcome, and no
// SAT model was rejected by the PODEM simulator's check (a rejected cube
// would leave its class Aborted without a word).
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
			var events []telemetry.Event
			cfg := ExperimentConfig(c.name)
			cfg.Workers = 1
			cfg.Telemetry = NewTracer(telemetry.FuncSink(func(e telemetry.Event) { events = append(events, e) }))
			if _, err := Sweep(design, cfg, goldenLevels); err != nil {
				t.Fatal(err)
			}
			spans := 0
			for _, s := range telemetry.TraceFromEvents(events).Spans {
				if s.Stage != "atpg" {
					continue
				}
				spans++
				k := s.Counters
				if k["atpg.sim_region_props"] <= 0 {
					t.Errorf("tp %.1f: atpg.sim_region_props = %d, want > 0", s.TPPercent, k["atpg.sim_region_props"])
				}
				if k["atpg.sat_cube_rejects"] != 0 {
					t.Errorf("tp %.1f: atpg.sat_cube_rejects = %d, want 0", s.TPPercent, k["atpg.sat_cube_rejects"])
				}
				if sum := k["atpg.sat_resolved"] + k["atpg.sat_budget_outs"] + k["atpg.sat_cube_rejects"]; sum != k["atpg.sat_calls"] {
					t.Errorf("tp %.1f: SAT outcomes add up to %d, atpg.sat_calls = %d", s.TPPercent, sum, k["atpg.sat_calls"])
				}
				t.Logf("tp %.1f: region props %d, extend blocked %d, SAT calls %d (budget-outs %d, cube rejects %d)",
					s.TPPercent, k["atpg.sim_region_props"], k["atpg.extend_blocked"], k["atpg.sat_calls"],
					k["atpg.sat_budget_outs"], k["atpg.sat_cube_rejects"])
			}
			if spans != len(goldenLevels) {
				t.Fatalf("%d atpg spans, want %d", spans, len(goldenLevels))
			}
		})
	}
}
