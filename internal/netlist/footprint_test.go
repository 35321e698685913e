package netlist_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// generate builds s38417c at the given scale, failing the test on error.
func generate(tb testing.TB, lib *stdcell.Library, scale float64) *netlist.Netlist {
	tb.Helper()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(scale), lib)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNetlistFootprint holds the netlist's size at rest: the record
// sizes, the heap a generated ×0.5 s38417c retains per cell (with the
// CSR and levelization that Generate's validation attached), and a
// Clone whose allocation count does not grow with the design.
func TestNetlistFootprint(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Load", unsafe.Sizeof(netlist.Load{}), 12},
		{"Instance", unsafe.Sizeof(netlist.Instance{}), 64},
		{"Net", unsafe.Sizeof(netlist.Net{}), 32},
	} {
		if c.got > c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d B, want <= %d", c.name, c.got, c.want)
		}
	}

	lib := stdcell.Default()
	small := generate(t, lib, 0.05)
	before := heapInUse()
	n := generate(t, lib, 0.5)
	after := heapInUse()
	perCell := float64(after-before) / float64(len(n.Cells))
	t.Logf("x0.5 s38417c: %d cells, %.2f MB retained, %.0f B per cell",
		len(n.Cells), float64(after-before)/1e6, perCell)
	if perCell > 200 {
		t.Errorf("a generated x0.5 s38417c retains %.0f B per cell (%.2f MB for %d cells), want <= 200",
			perCell, float64(after-before)/1e6, len(n.Cells))
	}

	allocsSmall := testing.AllocsPerRun(5, func() { small.Clone() })
	allocsLarge := testing.AllocsPerRun(5, func() { n.Clone() })
	t.Logf("Clone allocations: %.0f at x0.05 (%d cells), %.0f at x0.5 (%d cells)",
		allocsSmall, len(small.Cells), allocsLarge, len(n.Cells))
	if allocsSmall != allocsLarge {
		t.Errorf("Clone makes %.0f allocations at x0.05 (%d cells) and %.0f at x0.5 (%d cells), want the same count",
			allocsSmall, len(small.Cells), allocsLarge, len(n.Cells))
	}
	runtime.KeepAlive(n)
}

// TestClonePinArray checks the shared pin array behind every cloned
// cell's Ins: each window is capped at its own length, so neither an
// append nor an edit on one netlist reaches another cell or another
// netlist. Generate and ReadBench return netlists packed the same way.
func TestClonePinArray(t *testing.T) {
	lib := stdcell.Default()
	base := generate(t, lib, 0.05)
	want := make([][]netlist.NetID, len(base.Cells))
	for i := range base.Cells {
		want[i] = slices.Clone(base.Cells[i].Ins)
	}
	requireIns := func(label string, n *netlist.Netlist) {
		t.Helper()
		for i := range want {
			if got := n.Cells[i].Ins[:len(want[i])]; !slices.Equal(got, want[i]) {
				t.Fatalf("%s: cell %s pins %v, want %v", label, n.Cells[i].Name, got, want[i])
			}
		}
	}

	// An append to every cell in turn, on the generated netlist and on
	// a clone of it: with an uncapped window the first append would
	// overwrite its neighbour's first pin.
	for _, tc := range []struct {
		label string
		n     *netlist.Netlist
	}{{"Generate", generate(t, lib, 0.05)}, {"Clone", base.Clone()}} {
		for i := range tc.n.Cells {
			tc.n.Cells[i].Ins = append(tc.n.Cells[i].Ins, netlist.NoNet)
		}
		requireIns(tc.label+" after appending to every cell", tc.n)
	}
	requireIns("base after appends to its clone", base)

	// Edits on a clone stay in the clone.
	c := base.Clone()
	for i := range c.Cells {
		if len(c.Cells[i].Ins) > 0 && i%3 == 0 {
			c.SetInput(netlist.CellID(i), 0, netlist.NetID(i%len(c.Nets)))
		}
	}
	csr := c.CSR()
	for net := 0; net < len(c.Nets); net += 7 {
		c.MoveLoads(netlist.NetID(net), netlist.NetID((net+1)%len(c.Nets)), csr.Fanout(netlist.NetID(net)))
	}
	requireIns("base after SetInput and MoveLoads on its clone", base)

	var text bytes.Buffer
	if err := circuitgen.WriteBench(&text, base); err != nil {
		t.Fatal(err)
	}
	read, err := circuitgen.ReadBench(bytes.NewReader(text.Bytes()), base.Name, lib, 8000)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := circuitgen.WriteBench(&again, read); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), again.Bytes()) {
		t.Errorf("WriteBench(ReadBench(WriteBench(n))) differs from WriteBench(n): %d vs %d bytes",
			again.Len(), text.Len())
	}

	for _, tc := range []struct {
		label string
		n     *netlist.Netlist
	}{{"Generate", base}, {"ReadBench", read}} {
		if len(tc.n.Cells) != cap(tc.n.Cells) || len(tc.n.Nets) != cap(tc.n.Nets) {
			t.Errorf("%s: Cells len %d cap %d, Nets len %d cap %d, want cap == len",
				tc.label, len(tc.n.Cells), cap(tc.n.Cells), len(tc.n.Nets), cap(tc.n.Nets))
		}
	}
}

// cloneSink keeps BenchmarkClone's result live.
var cloneSink *netlist.Netlist

// BenchmarkClone is one sweep level's copy of its base circuit: an
// s38417c-class circuit at half the paper's size (~15k cells).
func BenchmarkClone(b *testing.B) {
	n := generate(b, stdcell.Default(), 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = n.Clone()
	}
}
