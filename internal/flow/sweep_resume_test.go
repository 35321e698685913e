package flow

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tpilayout/internal/netlist"
	"tpilayout/internal/scan"
	"tpilayout/internal/telemetry"
)

// TestSweepLevelsOrderAndSpans drives the engine with a stub level
// function: whatever the worker count and the order levels finish in,
// each result lands at its input index, and every level's run span is a
// child of the one sweep (tp -1) span.
func TestSweepLevelsOrderAndSpans(t *testing.T) {
	n := design(t)
	levels := []float64{0, 1, 2, 3, 4, 5}
	stub := func(_ context.Context, base *netlist.Netlist, cfg Config, pct float64) LevelResult {
		if base == n {
			t.Error("level was handed the caller's design, not a prewarmed clone")
		}
		cfg.TPPercent = pct
		sp := cfg.runSpan()
		// Not synchronisation: early levels finish last, so a pool that
		// stored results in completion order would be caught.
		time.Sleep(time.Duration(5-pct) * time.Millisecond)
		sp.End()
		return LevelResult{TPPercent: pct, Metrics: Metrics{NumTP: int(pct)}}
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg, buf, sink := tracedConfig()
			cfg.Workers = workers
			out, err := SweepLevels(context.Background(), n, cfg, levels, stub)
			if err != nil {
				t.Fatal(err)
			}
			for i, pct := range levels {
				if out[i].TPPercent != pct || out[i].Metrics.NumTP != int(pct) {
					t.Errorf("out[%d] = level %g (NumTP %d), want level %g", i, out[i].TPPercent, out[i].Metrics.NumTP, pct)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			trace, err := telemetry.ParseTrace(buf)
			if err != nil {
				t.Fatal(err)
			}
			if !trace.Balanced() {
				t.Fatalf("unbalanced spans: %v", trace.Unbalanced)
			}
			var sweepID int64
			runs := map[float64]int64{}
			for _, sp := range trace.Spans {
				switch sp.Stage {
				case StageSweep:
					if sweepID != 0 || sp.TPPercent != -1 || sp.Parent != 0 {
						t.Fatalf("want one root sweep span at tp -1, got another: %+v", sp)
					}
					sweepID = sp.ID
				case StageRun:
					runs[sp.TPPercent] = sp.Parent
				}
			}
			if sweepID == 0 || len(runs) != len(levels) {
				t.Fatalf("sweep span %d with %d run spans, want one with %d", sweepID, len(runs), len(levels))
			}
			for pct, parent := range runs {
				if parent != sweepID {
					t.Errorf("run span of level %g has parent %d, want the sweep span %d", pct, parent, sweepID)
				}
			}
		})
	}
}

// TestRunLevelMatchesSweepPartial: running levels one at a time through
// the engine's level function (PrewarmBase + RunLevel) must produce metrics
// bit-identical to an uninterrupted SweepPartial over the same levels —
// the property that lets checkpoint/resume stitch tables no different
// from a never-crashed run.
func TestRunLevelMatchesSweepPartial(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}, Workers: 1}
	cfg.Place.TargetUtilization = 0.90
	levels := []float64{0, 2, 5}

	sweep, err := SweepPartial(context.Background(), n, cfg, levels)
	if err != nil {
		t.Fatal(err)
	}

	base := PrewarmBase(n)
	for i, pct := range levels {
		lr := RunLevel(context.Background(), base, cfg, pct)
		if lr.Err != nil {
			t.Fatalf("RunLevel(%.1f) failed: %v", pct, lr.Err)
		}
		if sweep[i].Err != nil {
			t.Fatalf("SweepPartial level %.1f failed: %v", pct, sweep[i].Err)
		}
		if !reflect.DeepEqual(lr.Metrics, sweep[i].Metrics) {
			t.Errorf("level %.1f: RunLevel metrics diverge from SweepPartial\nrun:   %+v\nsweep: %+v",
				pct, lr.Metrics, sweep[i].Metrics)
		}
	}
}

// TestRunLevelIsolatesPanics: a panic at the entry of a stage degrades to
// a StageError carried in LevelResult.Err, never a process panic.
func TestRunLevelIsolatesPanics(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}}
	cfg.Place.TargetUtilization = 0.90
	cfg.Telemetry = telemetry.New(atSpanStart(func(stage string, tp float64) {
		if stage == StageATPG {
			panic("injected stage crash")
		}
	}))
	base := PrewarmBase(n)
	lr := RunLevel(context.Background(), base, cfg, 2)
	if lr.Err == nil {
		t.Fatal("panicking level returned no error")
	}
	var se *StageError
	if !errors.As(lr.Err, &se) {
		t.Fatalf("err = %T %v, want *StageError", lr.Err, lr.Err)
	}
	// The base must remain usable for a subsequent clean level.
	cfg.Telemetry = nil
	if lr2 := RunLevel(context.Background(), base, cfg, 2); lr2.Err != nil {
		t.Fatalf("base poisoned by panicked sibling: %v", lr2.Err)
	}
}
