// Package chaos is a deterministic fault-injection harness for tests.
//
// An Injector is seeded and configured with a plan: named injection
// points, each with a firing probability and an optional limit on how
// many times it fires. Code under test consults the injector at its
// points (directly via Should/Fail, or through the JournalHook adapter);
// the injector decides pseudo-randomly but REPRODUCIBLY whether to
// inject the fault.
//
// Determinism under concurrency: the decision for the nth occurrence of
// a point is a pure hash of (seed, point, n). Goroutine interleaving
// may change WHICH caller observes the nth occurrence, but the set of
// fired occurrences per point — and therefore the number and kind of
// injected faults — is identical for a given seed and call counts.
// That is what lets an invariant suite sweep hundreds of seeds and
// bisect any failure back to one reproducible schedule.
package chaos

import (
	"fmt"
	"sync"
)

// Fault is the error injected at a point. Tests use errors.As to prove
// an observed failure came from the harness rather than real code.
type Fault struct {
	Point string // injection point name
	N     int64  // 1-based occurrence index at which it fired
}

func (f *Fault) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s (occurrence %d)", f.Point, f.N)
}

// Plan configures one injection point.
type Plan struct {
	// Probability in [0,1] that any given occurrence fires.
	Probability float64
	// Limit caps the number of fired occurrences; 0 means unlimited.
	Limit int64
}

// Injector decides, deterministically per seed, which occurrences of
// which points inject faults. Safe for concurrent use. A nil Injector
// never fires.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	plans map[string]Plan
	seen  map[string]int64 // occurrences observed per point
	fired map[string]int64 // occurrences fired per point
}

// New returns an Injector for seed with no active points.
func New(seed int64) *Injector {
	return &Injector{
		seed:  uint64(seed),
		plans: make(map[string]Plan),
		seen:  make(map[string]int64),
		fired: make(map[string]int64),
	}
}

// Arm configures point with plan, replacing any previous plan.
func (in *Injector) Arm(point string, plan Plan) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[point] = plan
	return in
}

// Should records one occurrence of point and reports whether it fires.
func (in *Injector) Should(point string) bool {
	fired, _ := in.observe(point)
	return fired
}

// Fail records one occurrence of point and returns a *Fault if it
// fires, else nil — the shape journal.Options.Hook wants.
func (in *Injector) Fail(point string) error {
	if fired, n := in.observe(point); fired {
		return &Fault{Point: point, N: n}
	}
	return nil
}

// observe bumps the occurrence counter and evaluates the plan.
func (in *Injector) observe(point string) (bool, int64) {
	if in == nil {
		return false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seen[point]++
	n := in.seen[point]
	plan, ok := in.plans[point]
	if !ok || plan.Probability <= 0 {
		return false, n
	}
	if plan.Limit > 0 && in.fired[point] >= plan.Limit {
		return false, n
	}
	// Pure function of (seed, point, n): the fired SET is independent of
	// goroutine interleaving.
	if plan.Probability < 1 && roll(in.seed, point, n) >= plan.Probability {
		return false, n
	}
	in.fired[point]++
	return true, n
}

// Seen returns how many occurrences of point have been observed.
func (in *Injector) Seen(point string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen[point]
}

// Fired returns how many occurrences of point have injected a fault.
func (in *Injector) Fired(point string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

// JournalHook adapts the injector to journal.Options.Hook shape: the
// op string becomes the point "journal.<op>".
func (in *Injector) JournalHook() func(op string) error {
	return func(op string) error {
		return in.Fail("journal." + op)
	}
}

// roll maps (seed, point, n) to a uniform float64 in [0,1) using an
// FNV-1a/splitmix-style mixer — stable across runs and platforms.
func roll(seed uint64, point string, n int64) float64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= 0x100000001B3
	}
	h ^= uint64(n)
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}
