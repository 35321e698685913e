package tpi

import (
	"math"
	"testing"

	"tpilayout/internal/circuitgen"
)

// BenchmarkTPIInsert is the per-level cost the sweep pays: 5 % test points
// (41 TSFFs) on a clone of a prewarmed s38417c-class circuit at half the
// paper's size, the circuit of the sweep_phys benchmark workload.
func BenchmarkTPIInsert(b *testing.B) {
	base := generate(b, circuitgen.S38417Class(), 0.5)
	base.Prewarm()
	count := int(math.Round(0.05 * float64(base.NumFlipFlops()))) // as flow.Run sizes a level
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := base.Clone()
		b.StartTimer()
		res, err := Insert(n, Options{Count: count})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != count {
			b.Fatalf("inserted %d points, want %d", len(res.Points), count)
		}
	}
}
