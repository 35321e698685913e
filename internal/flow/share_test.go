package flow

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/telemetry"
)

// TestSweepSharesRepeatedLevels: a sweep runs each test-point count
// once. Levels that round to the count of an earlier level copy its row,
// and the copy is exact: the rows of a sharing sweep deep-equal rows of
// RunLevel calls made outside any sweep, one per level. A twin waits on
// another worker without racing it, runs its own layout when the first
// level fails, and returns promptly when cancelled while it waits.
func TestSweepSharesRepeatedLevels(t *testing.T) {
	levels := []float64{0, 1, 2, 3, 4, 5}

	for _, scale := range []float64{0.05, 0.02} {
		n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(scale), stdcell.Default())
		if err != nil {
			t.Fatal(err)
		}
		// twins: the levels whose count an earlier level already has.
		twins := map[float64]bool{}
		seen := map[int]bool{}
		for _, pct := range levels {
			c := tpCount(pct, n.NumFlipFlops())
			twins[pct] = seen[c]
			seen[c] = true
		}
		if len(seen) == len(levels) {
			t.Fatalf("scale %g: no two levels share a count; the case tests nothing", scale)
		}

		cfg, buf, sink := tracedConfig()
		cfg.Workers = 3
		out, err := SweepPartial(context.Background(), n, cfg, levels)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Telemetry, cfg.Workers = nil, 1
		base := PrewarmBase(n)
		for i, pct := range levels {
			alone := RunLevel(context.Background(), base, cfg, pct)
			if out[i].Err != nil || alone.Err != nil {
				t.Fatalf("scale %g level %g: sweep error %v, alone error %v", scale, pct, out[i].Err, alone.Err)
			}
			if !reflect.DeepEqual(out[i], alone) {
				t.Errorf("scale %g level %g: sweep row differs from a run of its own\nsweep: %+v\nalone: %+v", scale, pct, out[i], alone)
			}
		}
		if &out[2].Metrics.Timing[0] == &out[3].Metrics.Timing[0] {
			t.Errorf("scale %g: levels 2 and 3 share one Timing array", scale)
		}

		// The trace: one run span per level under the sweep; a twin's
		// carries the shared counter and no stage spans.
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
		runs := map[float64]telemetry.SpanRecord{}
		stages := map[int64]int{}
		var sweepID int64
		for _, sp := range trace.Spans {
			switch sp.Stage {
			case StageSweep:
				sweepID = sp.ID
			case StageRun:
				if _, dup := runs[sp.TPPercent]; dup {
					t.Errorf("scale %g: two run spans at level %g", scale, sp.TPPercent)
				}
				runs[sp.TPPercent] = sp
			default:
				stages[sp.Parent]++
			}
		}
		for _, pct := range levels {
			run, ok := runs[pct]
			if !ok || run.Parent != sweepID {
				t.Errorf("scale %g level %g: run span %+v, want one under the sweep span %d", scale, pct, run, sweepID)
				continue
			}
			shared := run.Counters[sharedLevel] == 1
			if shared != twins[pct] || (stages[run.ID] == 0) != twins[pct] {
				t.Errorf("scale %g level %g: shared counter %v with %d stage spans, want twin = %v",
					scale, pct, shared, stages[run.ID], twins[pct])
			}
		}
	}

	// A percentage outside [0,100] never shares, even where it rounds to
	// a valid level's count: its own run must reject it.
	for _, pcts := range [][]float64{{100, 100.4}, {-0.4, 0}} {
		if sh := shareLevels(pcts, 81); sh[0] != nil || sh[1] != nil {
			t.Errorf("levels %v share a run", pcts)
		}
	}

	// The rest run the physical flow only: a 2 % and a 3 % level, which
	// both round to 2 test points at this scale.
	n := design(t)
	if tpCount(2, n.NumFlipFlops()) != tpCount(3, n.NumFlipFlops()) {
		t.Fatal("levels 2 and 3 no longer share a count")
	}
	pair := []float64{2, 3}
	physical := func() Config {
		cfg, _, _ := tracedConfig()
		cfg.Telemetry, cfg.SkipATPG, cfg.Workers = nil, true, 2
		return cfg
	}
	want := RunLevel(context.Background(), PrewarmBase(n), physical(), 3)
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	t.Run("twin waits on another worker", func(t *testing.T) {
		// The first level starts its layout only once the twin is in
		// RunLevel on the other worker, so the twin waits across
		// goroutines (the race detector checks the hand-over).
		entered := make(chan struct{})
		level := func(ctx context.Context, base *netlist.Netlist, cfg Config, pct float64) LevelResult {
			if pct == 3 {
				close(entered)
			} else {
				select {
				case <-entered:
				case <-time.After(10 * time.Second):
					t.Error("the twin never came into flight beside the first level")
				}
			}
			return RunLevel(ctx, base, cfg, pct)
		}
		out, err := SweepLevels(context.Background(), n, physical(), pair, level)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].Err != nil || !reflect.DeepEqual(out[1], want) {
			t.Errorf("first level error %v; twin %+v, want %+v", out[0].Err, out[1], want)
		}
	})

	t.Run("panic in the first level", func(t *testing.T) {
		cfg := physical()
		cfg.Telemetry = telemetry.New(atSpanStart(func(stage string, tp float64) {
			if tp == 2 && stage == StagePlace {
				panic("induced placement failure at the 2% level")
			}
		}))
		out, err := SweepPartial(context.Background(), n, cfg, pair)
		if err != nil {
			t.Fatal(err)
		}
		var se *StageError
		if !errors.As(out[0].Err, &se) || se.TPPercent != 2 || se.Stage != StagePlace || len(se.Stack) == 0 {
			t.Errorf("first level: %v, want its own StageError at place with a stack", out[0].Err)
		}
		if !reflect.DeepEqual(out[1], want) {
			t.Errorf("twin of a panicked level: %+v, want its own run %+v", out[1], want)
		}
	})

	t.Run("cancel while the twin waits", func(t *testing.T) {
		// The first level never settles while the twin is out: only the
		// context can end the twin's wait.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		entered, twinDone := make(chan struct{}), make(chan struct{})
		var cancelled time.Time
		level := func(ctx context.Context, base *netlist.Netlist, cfg Config, pct float64) LevelResult {
			if pct == 3 {
				close(entered)
				defer close(twinDone)
				return RunLevel(ctx, base, cfg, pct)
			}
			<-entered
			time.Sleep(20 * time.Millisecond) // the twin is waiting now
			cancelled = time.Now()
			cancel()
			select {
			case <-twinDone:
			case <-time.After(10 * time.Second):
				t.Error("the cancelled twin never returned")
			}
			return LevelResult{TPPercent: pct, Err: ctx.Err()}
		}
		out, err := SweepLevels(ctx, n, physical(), pair, level)
		if err != nil {
			t.Fatal(err)
		}
		if lag := time.Since(cancelled); lag > 2*time.Second {
			t.Errorf("the sweep returned %v after the cancel, want within one work unit", lag)
		}
		var se *StageError
		if !errors.Is(out[1].Err, context.Canceled) || !errors.As(out[1].Err, &se) || out[1].Metrics.Cells != 0 {
			t.Errorf("cancelled twin: %+v, want a StageError wrapping context.Canceled and no row", out[1])
		}
	})
}
