package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestDeterministicAcrossInterleavings: for a fixed seed and occurrence
// count, the SET of fired occurrence indices is identical whether the
// point is hit serially or from many goroutines.
func TestDeterministicAcrossInterleavings(t *testing.T) {
	const seed, total = 42, 2000
	plan := Plan{Probability: 0.25}

	firedSet := func(parallel bool) []int64 {
		in := New(seed).Arm("p", plan)
		var mu sync.Mutex
		var fired []int64
		hit := func() {
			if f := in.Fail("p"); f != nil {
				var fault *Fault
				if !errors.As(f, &fault) {
					t.Errorf("Fail returned %T, want *Fault", f)
					return
				}
				mu.Lock()
				fired = append(fired, fault.N)
				mu.Unlock()
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < total/8; i++ {
						hit()
					}
				}()
			}
			wg.Wait()
		} else {
			for i := 0; i < total; i++ {
				hit()
			}
		}
		sort.Slice(fired, func(i, k int) bool { return fired[i] < fired[k] })
		return fired
	}

	serial := firedSet(false)
	concurrent := firedSet(true)
	if fmt.Sprint(serial) != fmt.Sprint(concurrent) {
		t.Fatalf("fired sets differ:\nserial     %v\nconcurrent %v", serial, concurrent)
	}
	if len(serial) == 0 || len(serial) == total {
		t.Fatalf("degenerate firing: %d of %d", len(serial), total)
	}
}

// TestSeedsDiffer: different seeds produce different fired sets.
func TestSeedsDiffer(t *testing.T) {
	count := func(seed int64) int64 {
		in := New(seed).Arm("p", Plan{Probability: 0.5})
		for i := 0; i < 500; i++ {
			in.Should("p")
		}
		return in.Fired("p")
	}
	a, b := count(1), count(2)
	if a == b {
		// Counts could coincide; compare the actual pattern.
		pat := func(seed int64) string {
			in := New(seed).Arm("p", Plan{Probability: 0.5})
			s := make([]byte, 500)
			for i := range s {
				if in.Should("p") {
					s[i] = '1'
				} else {
					s[i] = '0'
				}
			}
			return string(s)
		}
		if pat(1) == pat(2) {
			t.Fatal("seeds 1 and 2 produced identical firing patterns")
		}
	}
}

// TestProbabilityRoughlyHonored: rate lands near the plan's probability.
func TestProbabilityRoughlyHonored(t *testing.T) {
	const total = 10000
	in := New(7).Arm("p", Plan{Probability: 0.3})
	for i := 0; i < total; i++ {
		in.Should("p")
	}
	rate := float64(in.Fired("p")) / total
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("fired rate = %.3f, want ≈0.30", rate)
	}
}

// TestLimit: a point stops firing at its limit, keeps counting.
func TestLimit(t *testing.T) {
	in := New(3).Arm("p", Plan{Probability: 1, Limit: 2})
	var fired int
	for i := 0; i < 10; i++ {
		if in.Should("p") {
			fired++
		}
	}
	if fired != 2 || in.Fired("p") != 2 || in.Seen("p") != 10 {
		t.Fatalf("fired=%d Fired=%d Seen=%d, want 2/2/10", fired, in.Fired("p"), in.Seen("p"))
	}
}

// TestUnarmedAndNil: unknown points and nil injectors never fire.
func TestUnarmedAndNil(t *testing.T) {
	in := New(1)
	if in.Should("ghost") || in.Fail("ghost") != nil {
		t.Fatal("unarmed point fired")
	}
	if in.Seen("ghost") != 2 {
		t.Fatalf("Seen = %d, want 2 (observed even when unarmed)", in.Seen("ghost"))
	}
	var nilIn *Injector
	if nilIn.Should("x") || nilIn.Fail("x") != nil || nilIn.Seen("x") != 0 {
		t.Fatal("nil injector misbehaved")
	}
}

// TestJournalHook: op names map to journal.<op> points.
func TestJournalHook(t *testing.T) {
	in := New(11).Arm("journal.fsync", Plan{Probability: 1, Limit: 1})
	hook := in.JournalHook()
	if err := hook("append"); err != nil {
		t.Fatalf("unarmed op errored: %v", err)
	}
	err := hook("fsync")
	var fault *Fault
	if !errors.As(err, &fault) || fault.Point != "journal.fsync" {
		t.Fatalf("armed op = %v, want *Fault at journal.fsync", err)
	}
	if err := hook("fsync"); err != nil {
		t.Fatalf("limit not honored: %v", err)
	}
}
