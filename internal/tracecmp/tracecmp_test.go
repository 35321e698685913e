package tracecmp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// synthTrace renders a balanced NDJSON trace: one run span per TP level
// with one child span per (stage, duration) pair. slow multiplies the
// named stage's duration, the "artificially slowed stage" fixture.
func synthTrace(levels []float64, stages map[string]time.Duration, slowStage string, slow float64) string {
	var sb strings.Builder
	id := int64(0)
	ts := int64(1_700_000_000_000_000_000)
	stamp := func(ns int64) string { return time.Unix(0, ns).UTC().Format(time.RFC3339Nano) }
	for _, tp := range levels {
		runID := id
		id++
		fmt.Fprintf(&sb, `{"ev":"span_start","id":%d,"stage":"run","tp":%g,"t":"%s"}`+"\n",
			runID, tp, stamp(ts))
		var total time.Duration
		// Stage order must be deterministic for stable span IDs.
		for _, st := range []string{"place", "atpg", "route"} {
			d := stages[st]
			if st == slowStage {
				d = time.Duration(float64(d) * slow)
			}
			total += d
			sid := id
			id++
			fmt.Fprintf(&sb, `{"ev":"span_start","id":%d,"parent":%d,"stage":"%s","tp":%g,"t":"%s"}`+"\n",
				sid, runID, st, tp, stamp(ts))
			fmt.Fprintf(&sb, `{"ev":"span_end","id":%d,"parent":%d,"stage":"%s","tp":%g,"t":"%s","dur_ns":%d,"counters":{"%s.work":%d}}`+"\n",
				sid, runID, st, tp, stamp(ts+int64(d)), int64(d), st, 100)
		}
		fmt.Fprintf(&sb, `{"ev":"span_end","id":%d,"stage":"run","tp":%g,"t":"%s","dur_ns":%d}`+"\n",
			runID, tp, stamp(ts+int64(total)), int64(total))
	}
	return sb.String()
}

var baseStages = map[string]time.Duration{
	"place": 400 * time.Millisecond,
	"atpg":  900 * time.Millisecond,
	"route": 200 * time.Millisecond,
}

func TestDiffIdenticalTraces(t *testing.T) {
	text := synthTrace([]float64{0, 1}, baseStages, "", 1)
	base, err := LoadTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := LoadTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(base, cur, Options{MaxRegressPct: 25})
	if len(rep.Regressions) != 0 {
		t.Fatalf("identical traces regressed: %+v", rep.Regressions)
	}
	// 2 levels × (3 stages + run).
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.DeltaPct != 0 || r.Note != "" {
			t.Errorf("row %s: delta %.1f%%, note %q", r.Key, r.DeltaPct, r.Note)
		}
	}
}

func TestDiffFlagsSlowedStage(t *testing.T) {
	base, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0, 1}, baseStages, "", 1)))
	cur, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0, 1}, baseStages, "atpg", 1.6)))
	rep := Diff(base, cur, Options{MaxRegressPct: 25, MinDur: 100 * time.Millisecond})
	// The slowed stage gates at both levels; the run spans containing it
	// regress past 25% too (900ms of 1.5s grew 1.6x) and are also named.
	seen := map[string]bool{}
	for _, r := range rep.Regressions {
		if r.Stage != "atpg" && r.Stage != "run" {
			t.Errorf("flagged %s, want only atpg and its runs", r.Key)
		}
		seen[r.Key.String()] = true
		if r.Stage == "atpg" && (r.DeltaPct < 59 || r.DeltaPct > 61) {
			t.Errorf("%s delta = %.1f%%, want ~60%%", r.Key, r.DeltaPct)
		}
	}
	if !seen["atpg @ tp 0.0%"] || !seen["atpg @ tp 1.0%"] {
		t.Fatalf("regressions = %+v, want atpg at both levels", rep.Regressions)
	}
	if !seen["atpg @ tp 1.0%"] {
		t.Errorf("regression keys %v missing atpg @ tp 1.0%%", seen)
	}
	// The report names the stage and level on its regression lines.
	var sb strings.Builder
	rep.Write(&sb)
	if !strings.Contains(sb.String(), "REGRESSION") || !strings.Contains(sb.String(), "atpg @ tp 1.0%") {
		t.Fatalf("report missing regression naming:\n%s", sb.String())
	}
}

func TestDiffNoiseFloorSuppresses(t *testing.T) {
	base, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, baseStages, "", 1)))
	cur, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, baseStages, "route", 2)))
	// route doubled, but its 200ms baseline sits below the 300ms floor.
	rep := Diff(base, cur, Options{MaxRegressPct: 25, MinDur: 300 * time.Millisecond})
	if len(rep.Regressions) != 0 {
		t.Fatalf("noise floor did not suppress: %+v", rep.Regressions)
	}
	// Without the floor it gates.
	rep = Diff(base, cur, Options{MaxRegressPct: 25})
	if len(rep.Regressions) != 1 || rep.Regressions[0].Stage != "route" {
		t.Fatalf("expected route regression, got %+v", rep.Regressions)
	}
}

func TestDiffNormalizeCancelsUniformSlowdown(t *testing.T) {
	// Current machine is uniformly 2x slower: every absolute duration
	// doubles, every share stays identical.
	slowAll := map[string]time.Duration{}
	for st, d := range baseStages {
		slowAll[st] = 2 * d
	}
	base, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, baseStages, "", 1)))
	cur, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, slowAll, "", 1)))
	if rep := Diff(base, cur, Options{MaxRegressPct: 25}); len(rep.Regressions) != 4 {
		t.Fatalf("absolute mode should flag all 3 stages plus the run, got %+v", rep.Regressions)
	}
	if rep := Diff(base, cur, Options{MaxRegressPct: 25, Normalize: true}); len(rep.Regressions) != 0 {
		t.Fatalf("normalize should cancel a uniform slowdown, got %+v", rep.Regressions)
	}
	// A genuine shape change still shows through -Normalize: atpg's
	// share climbs from 60% to ~79%, +32% relative.
	cur2, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, slowAll, "atpg", 2.5)))
	rep := Diff(base, cur2, Options{MaxRegressPct: 25, Normalize: true})
	if len(rep.Regressions) != 1 || rep.Regressions[0].Stage != "atpg" {
		t.Fatalf("normalized diff missed the shape change: %+v", rep.Regressions)
	}
}

func TestDiffHardRegressBackstop(t *testing.T) {
	// A dominant stage is share-invariant: atpg at 90% of its run can
	// triple and its share moves a few percent — -normalize alone never
	// gates. The absolute backstop catches it.
	dominant := map[string]time.Duration{
		"place": 50 * time.Millisecond,
		"atpg":  9 * time.Second,
		"route": 50 * time.Millisecond,
	}
	base, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, dominant, "", 1)))
	cur, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, dominant, "atpg", 3)))
	if rep := Diff(base, cur, Options{MaxRegressPct: 25, MinDur: 100 * time.Millisecond, Normalize: true}); len(rep.Regressions) != 0 {
		t.Fatalf("share gate alone should miss a dominant-stage slip, got %+v", rep.Regressions)
	}
	rep := Diff(base, cur, Options{MaxRegressPct: 25, HardRegressPct: 150, MinDur: 100 * time.Millisecond, Normalize: true})
	// The run span containing the slip regresses absolutely too (same
	// convention as unnormalized mode).
	var atpgNote string
	for _, r := range rep.Regressions {
		if r.Stage != "atpg" && r.Stage != "run" {
			t.Errorf("backstop flagged %s, want only atpg and its run", r.Key)
		}
		if r.Stage == "atpg" {
			atpgNote = r.Note
		}
	}
	if atpgNote == "" {
		t.Fatalf("backstop missed the dominant-stage slip: %+v", rep.Regressions)
	}
	if !strings.Contains(atpgNote, "absolute") || !strings.Contains(atpgNote, "+200%") {
		t.Errorf("backstop note = %q, want absolute +200%% explanation", atpgNote)
	}
	// A 2x machine (uniform slowdown, under the 150%% backstop) still
	// passes — the backstop threshold sits above host jitter.
	slowAll := map[string]time.Duration{}
	for st, d := range dominant {
		slowAll[st] = 2 * d
	}
	cur2, _ := LoadTrace(strings.NewReader(synthTrace([]float64{0}, slowAll, "", 1)))
	if rep := Diff(base, cur2, Options{MaxRegressPct: 25, HardRegressPct: 150, MinDur: 100 * time.Millisecond, Normalize: true}); len(rep.Regressions) != 0 {
		t.Fatalf("backstop gated a uniform 2x slowdown: %+v", rep.Regressions)
	}
}

func TestDiffCounterDrift(t *testing.T) {
	text := synthTrace([]float64{0}, baseStages, "", 1)
	base, _ := LoadTrace(strings.NewReader(text))
	cur, _ := LoadTrace(strings.NewReader(strings.ReplaceAll(text, `"atpg.work":100`, `"atpg.work":140`)))
	rep := Diff(base, cur, Options{MaxRegressPct: 25})
	var note string
	for _, r := range rep.Rows {
		if r.Stage == "atpg" {
			note = r.Note
		}
	}
	if note != "atpg.work 100->140" {
		t.Fatalf("counter drift note = %q", note)
	}
	if len(rep.Regressions) != 0 {
		t.Fatal("counter drift must not gate on its own")
	}
}
