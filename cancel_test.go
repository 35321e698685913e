package tpilayout

// Cancellation determinism suite: the supervision layer must make
// cancellation safe (no leaks, no torn results), prompt (within one work
// unit), and invisible when unused (an uncancelled run still matches the
// golden table byte for byte). CI runs this file under -race.

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tpilayout/internal/flow"
	"tpilayout/internal/telemetry"
)

// atSpanStart returns a tracer whose one sink calls fn with the stage name
// and TP level of every span that opens (sweep, run, then the stages), on
// the goroutine that opens it: how this suite cancels or blows up at the
// entry of a stage.
func atSpanStart(fn func(stage string, tpPercent float64)) *telemetry.Tracer {
	return telemetry.New(telemetry.FuncSink(func(e telemetry.Event) {
		if e.Type == telemetry.EventSpanStart {
			fn(e.Stage, e.TPPercent)
		}
	}))
}

// cancelDesign is the shared small design of this suite, built once.
func cancelDesign(t *testing.T) *Netlist {
	t.Helper()
	design, err := Generate(S38417Class().Scale(0.05), DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return design
}

// checkNoGoroutineLeak polls until the goroutine count settles back to the
// baseline (the stand-in for goleak, which this module does not vendor).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak after cancelled sweep: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSweepCancelAtRandomPoints cancels SweepPartial at randomized stage
// boundaries across several worker counts. Whatever the cancellation
// point, every level must come back either fully written (valid Metrics)
// or cleanly failed with the context's error — never a torn row — and no
// worker goroutine may outlive the call.
func TestSweepCancelAtRandomPoints(t *testing.T) {
	design := cancelDesign(t)
	levels := []float64{0, 2, 5}
	rng := rand.New(rand.NewSource(38417))

	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 3; trial++ {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())

			cfg := ExperimentConfig("s38417c")
			cfg.SkipATPG = true // physical flow only: keeps each trial fast
			cfg.Workers = workers
			// Cancel when the fleet has opened cancelAt spans in total — a
			// different randomized point inside the sweep each trial (0 =
			// cancelled before any stage runs).
			cancelAt := int64(rng.Intn(12))
			var entered atomic.Int64
			cfg.Telemetry = atSpanStart(func(stage string, tpPercent float64) {
				if entered.Add(1) > cancelAt {
					cancel()
				}
			})

			out, err := SweepPartial(ctx, design, cfg, levels)
			cancel()
			if err != nil {
				t.Fatalf("workers=%d trial=%d: sweep-level error %v", workers, trial, err)
			}
			if len(out) != len(levels) {
				t.Fatalf("workers=%d trial=%d: %d results for %d levels", workers, trial, len(out), len(levels))
			}
			for i, lr := range out {
				if lr.TPPercent != levels[i] {
					t.Errorf("workers=%d trial=%d: result %d carries %g%%, want %g%%",
						workers, trial, i, lr.TPPercent, levels[i])
				}
				if lr.Err != nil {
					if !errors.Is(lr.Err, context.Canceled) {
						t.Errorf("workers=%d trial=%d level %g: unexpected error %v",
							workers, trial, lr.TPPercent, lr.Err)
					}
					var se *StageError
					if !errors.As(lr.Err, &se) {
						t.Errorf("workers=%d trial=%d level %g: cancellation not wrapped in StageError: %v",
							workers, trial, lr.TPPercent, lr.Err)
					}
					// A failed level must not carry half-written metrics.
					if lr.Metrics.Cells != 0 || lr.Metrics.Circuit != "" {
						t.Errorf("workers=%d trial=%d level %g: torn result — Err and Metrics both set",
							workers, trial, lr.TPPercent)
					}
					continue
				}
				// A completed level must be fully written.
				if lr.Metrics.Circuit == "" || lr.Metrics.Cells == 0 || lr.Metrics.ChipArea <= 0 {
					t.Errorf("workers=%d trial=%d level %g: incomplete metrics %+v",
						workers, trial, lr.TPPercent, lr.Metrics)
				}
			}
			checkNoGoroutineLeak(t, before)
		}
	}
}

// TestSweepCancelMidATPGReturnsPromptly cancels while ATPG is running —
// on an s38417-class circuit whose ATPG phase takes several seconds — and
// demands the whole sweep return within 2 seconds of the cancel: the
// cancellation checkpoints sit inside the per-fault loops, so a cancel
// lands within one work unit rather than one flow.
func TestSweepCancelMidATPGReturnsPromptly(t *testing.T) {
	design, err := Generate(S38417Class().Scale(0.2), DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := ExperimentConfig("s38417c")
	cfg.Workers = 2
	var armed atomic.Bool
	var cancelledAt atomic.Int64
	cfg.Telemetry = atSpanStart(func(stage string, tpPercent float64) {
		// Fire once, shortly after the first level reaches ATPG, so the
		// cancel lands inside the pattern-generation loops rather than at
		// a stage boundary.
		if stage == flow.StageATPG && armed.CompareAndSwap(false, true) {
			time.AfterFunc(50*time.Millisecond, func() {
				cancelledAt.Store(time.Now().UnixNano())
				cancel()
			})
		}
	})

	_, err = SweepContext(ctx, design, cfg, []float64{0, 2})
	returned := time.Now().UnixNano()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if at := cancelledAt.Load(); at > 0 {
		if lag := time.Duration(returned - at); lag > 2*time.Second {
			t.Fatalf("cancelled sweep took %v to return, want < 2s", lag)
		}
	}
}

// TestSweepUncancelledMatchesGolden proves the supervision layer is free
// when unused: a sweep through SweepContext with a live-but-never-
// cancelled context reproduces the committed golden tables byte for byte,
// at every worker count.
func TestSweepUncancelledMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenDir, "sweep_s38417c.golden"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	design := cancelDesign(t)
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := ExperimentConfig("s38417c")
		cfg.Workers = workers
		rows, err := SweepContext(ctx, design, cfg, goldenLevels)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := FormatTable1(rows) + "\n" + FormatTable2(rows) + "\n" + FormatTable3(rows)
		if got != string(want) {
			t.Fatalf("workers=%d: supervised sweep drifted from golden table\n%s",
				workers, diffLines(string(want), got))
		}
	}
}

// TestSweepPanicLevelIsolated is the headline robustness scenario: one
// level of a sweep panics (induced at the entry of its place stage) and the sweep
// still returns metrics for every other level, plus a StageError carrying
// the captured stack for the one that blew up. The process survives.
func TestSweepPanicLevelIsolated(t *testing.T) {
	design := cancelDesign(t)
	levels := []float64{0, 2, 5}

	cfg := ExperimentConfig("s38417c")
	cfg.SkipATPG = true
	cfg.Workers = 3
	cfg.Telemetry = atSpanStart(func(stage string, tpPercent float64) {
		if tpPercent == 2 && stage == flow.StagePlace {
			panic("induced placement failure at the 2% level")
		}
	})

	out, err := SweepPartial(context.Background(), design, cfg, levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range out {
		if lr.TPPercent == 2 {
			if lr.Err == nil {
				t.Fatal("panicking level reported success")
			}
			var se *StageError
			if !errors.As(lr.Err, &se) {
				t.Fatalf("panicking level error %v is not a StageError", lr.Err)
			}
			if se.Stage != flow.StagePlace {
				t.Errorf("StageError.Stage = %q, want %q", se.Stage, flow.StagePlace)
			}
			if se.TPPercent != 2 {
				t.Errorf("StageError.TPPercent = %g, want 2", se.TPPercent)
			}
			if len(se.Stack) == 0 {
				t.Error("StageError.Stack empty — the panicking goroutine's stack was lost")
			}
			if !strings.Contains(lr.Err.Error(), "induced placement failure") {
				t.Errorf("error %q does not surface the panic value", lr.Err)
			}
			continue
		}
		if lr.Err != nil {
			t.Errorf("sibling level %g%% poisoned by the panicking level: %v", lr.TPPercent, lr.Err)
		}
		if lr.Metrics.Cells == 0 {
			t.Errorf("sibling level %g%% returned empty metrics", lr.TPPercent)
		}
	}

	// SweepContext over the same failing sweep must surface the first
	// failing level's error instead of rows.
	rows, err := SweepContext(context.Background(), design, cfg, levels)
	if err == nil || rows != nil {
		t.Fatal("SweepContext returned rows despite a failed level")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("SweepContext error %v does not wrap the StageError", err)
	}
}
