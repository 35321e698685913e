package place

import (
	"context"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/stdcell"
)

// BenchmarkPlace is one level's placement in the sweep_phys benchmark
// workload: an s38417c-class circuit at half the paper's size (~15k cells)
// at the paper's 97 % row utilization.
func BenchmarkPlace(b *testing.B) {
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.5), stdcell.Default())
	if err != nil {
		b.Fatal(err)
	}
	n.Prewarm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlaceContext(context.Background(), n, Options{TargetUtilization: 0.97}); err != nil {
			b.Fatal(err)
		}
	}
}
