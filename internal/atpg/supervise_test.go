package atpg

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tpilayout/internal/fault"
)

// countdownCtx is a context whose Err turns context.Canceled after its
// first k calls (never when k < 0). It counts every call, so an
// uncancelled run measures how many cancellation checkpoints it passes,
// and, when sites is non-nil, records the function making each call. A
// run is one goroutine, so the counter needs no lock.
type countdownCtx struct {
	context.Context
	k, calls int
	sites    []string
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.sites != nil {
		pc, _, _, _ := runtime.Caller(1)
		c.sites = append(c.sites, runtime.FuncForPC(pc).Name())
	}
	if c.k >= 0 && c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelInsideFaultSimPass: the detect loop of the fault-simulation
// passes checks the context every 32 positions and stops at the first
// check that sees a cancel; and a cancel landing at any checkpoint of a
// run — between random rounds, between classes of the pre-screen,
// between PODEM targets, or inside a drop, coverage or compaction pass,
// which it leaves partial — must fail the run. A run may return a nil
// error only with exactly the uncancelled patterns and statuses. Cancels
// at the first, middle and last checkpoint of the pre-screen are tried
// on top of the sampled ones.
func TestCancelInsideFaultSimPass(t *testing.T) {
	n := randCircuit(t, 5, 12, 200)
	set := fault.NewUniverse(n)
	reps := set.Reps()
	if len(reps) <= 2*detectChunk {
		t.Fatalf("%d fault classes, want more than %d", len(reps), 2*detectChunk)
	}
	v, err := NewView(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim := newFaultSim(&countdownCtx{Context: context.Background(), k: 2}, v, nil)
	b := sim.NewBatch()
	sim.SimGood(b)
	sim.detectEach(reps, set, b, func(int) bool { return true }, func(int, uint64) {})
	if sim.detects != 2*detectChunk {
		t.Errorf("cancelled at the third checkpoint, the detect loop simulated %d classes, want %d", sim.detects, 2*detectChunk)
	}

	// run returns the run's result, every fault's status and the number
	// of checks the run made.
	run := func(k int) (*Result, []fault.Status, int, error) {
		ctx := &countdownCtx{Context: context.Background(), k: k}
		set := fault.NewUniverse(n)
		res, err := RunContext(ctx, n, set, Options{})
		st := make([]fault.Status, set.Total())
		for i := range st {
			st[i] = set.Status(int32(i))
		}
		return res, st, ctx.calls, err
	}
	ref, refStatus, calls, err := run(-1)
	if err != nil {
		t.Fatal(err)
	}
	samples := 200
	if raceEnabled {
		samples = 20
	}
	cancelled := 0
	for i := 0; i <= samples; i++ {
		k := i * calls / samples
		res, status, _, err := run(k)
		switch {
		case errors.Is(err, context.Canceled):
			cancelled++
		case err != nil:
			t.Fatalf("cancel after %d of %d checks: err = %v, want context.Canceled or nil", k, calls, err)
		case !reflect.DeepEqual(res.Patterns, ref.Patterns) || !reflect.DeepEqual(status, refStatus):
			t.Fatalf("cancel after %d of %d checks: nil error with %d patterns, uncancelled run has %d (statuses equal: %t)",
				k, calls, len(res.Patterns), len(ref.Patterns), reflect.DeepEqual(status, refStatus))
		}
	}
	if cancelled != samples {
		t.Errorf("%d of %d runs cancelled before their last check failed, want all", cancelled, samples)
	}
	t.Logf("%d checkpoints per run; %d sampled cancels all failed the run", calls, cancelled)

	rec := &countdownCtx{Context: context.Background(), k: -1, sites: []string{}}
	if _, err := RunContext(rec, n, fault.NewUniverse(n), Options{}); err != nil {
		t.Fatal(err)
	}
	var screen []int
	for i, site := range rec.sites {
		if strings.HasSuffix(site, ".prescreen") {
			screen = append(screen, i)
		}
	}
	if len(screen) == 0 {
		t.Fatal("no checkpoint inside the pre-screen")
	}
	for _, k := range []int{screen[0], screen[len(screen)/2], screen[len(screen)-1]} {
		if _, _, _, err := run(k); !errors.Is(err, context.Canceled) {
			t.Errorf("cancel at checkpoint %d, inside the pre-screen: err = %v, want context.Canceled", k, err)
		}
	}
	t.Logf("the pre-screen holds checkpoints %d..%d", screen[0], screen[len(screen)-1])
}

// TestRunContextCancelled: cancelling mid-ATPG must abort within one work
// unit and report the context's error.
func TestRunContextCancelled(t *testing.T) {
	n := randCircuit(t, 3, 24, 600)
	set := fault.NewUniverse(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must not do any real work
	_, err := RunContext(ctx, n, set, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
