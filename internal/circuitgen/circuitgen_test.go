package circuitgen

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"tpilayout/internal/stdcell"
)

func TestGenerateScaledProfilesAreValid(t *testing.T) {
	lib := stdcell.Default()
	for _, spec := range []Spec{
		S38417Class().Scale(0.02),
		WirelessCtrlClass().Scale(0.02),
		DSPCoreClass().Scale(0.01),
	} {
		n, err := Generate(spec, lib)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		st := Summarize(n)
		if st.FFs != spec.NumFF {
			t.Errorf("%s: FFs = %d, want %d", spec.Name, st.FFs, spec.NumFF)
		}
		if st.Gates < spec.NumGates {
			t.Errorf("%s: gates = %d, want >= %d", spec.Name, st.Gates, spec.NumGates)
		}
		if st.POs < spec.NumPO {
			t.Errorf("%s: POs = %d, want >= %d", spec.Name, st.POs, spec.NumPO)
		}
		if len(st.Domains) != len(spec.Domains) {
			t.Errorf("%s: domains = %v, want %d", spec.Name, st.Domains, len(spec.Domains))
		}
		if st.MaxDepth < 3 {
			t.Errorf("%s: suspiciously shallow logic (depth %d)", spec.Name, st.MaxDepth)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	lib := stdcell.Default()
	spec := S38417Class().Scale(0.02)
	var bufs [2]bytes.Buffer
	for i := range bufs {
		n, err := Generate(spec, lib)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteBench(&bufs[i], n); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("two generations of the same spec differ")
	}
}

func TestDomainFractions(t *testing.T) {
	lib := stdcell.Default()
	spec := WirelessCtrlClass().Scale(0.05)
	n, err := Generate(spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(n.Domains))
	for _, ff := range n.FlipFlops() {
		counts[n.Cells[ff].Domain]++
	}
	total := 0
	for _, c := range counts {
		if c == 0 {
			t.Fatalf("a clock domain has no flip-flops: %v", counts)
		}
		total += c
	}
	frac0 := float64(counts[0]) / float64(total)
	if frac0 < 0.35 || frac0 > 0.55 {
		t.Errorf("domain 0 fraction = %.2f, want ≈0.45", frac0)
	}
}

func TestBenchRoundTrip(t *testing.T) {
	lib := stdcell.Default()
	n, err := Generate(S38417Class().Scale(0.01), lib)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, n); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadBench(bytes.NewReader(buf.Bytes()), "rt", lib, 10000)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := Summarize(n), Summarize(n2)
	if s1.FFs != s2.FFs || s1.Gates != s2.Gates || s1.POs != s2.POs {
		t.Errorf("round trip changed counts: %+v vs %+v", s1, s2)
	}
	if len(s1.Domains) != len(s2.Domains) {
		t.Errorf("round trip changed domains: %v vs %v", s1.Domains, s2.Domains)
	}
}

func TestReadBenchPlainISCAS(t *testing.T) {
	// A fragment in original ISCAS'89 notation (no domain comments).
	src := `
INPUT(G0)
INPUT(G1)
OUTPUT(G17)
G10 = DFF(G14)
G11 = NOT(G10)
G14 = NAND(G0, G1)
G17 = NOR(G11, G1)
`
	lib := stdcell.Default()
	n, err := ReadBench(strings.NewReader(src), "frag", lib, 10000)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(n)
	if st.FFs != 1 || st.Gates != 3 {
		t.Errorf("got %d FFs / %d gates, want 1 / 3", st.FFs, st.Gates)
	}
	if len(n.Domains) != 1 || n.Domains[0].Name != "clk" {
		t.Errorf("domains = %+v, want implicit clk", n.Domains)
	}
}

func TestReadBenchErrors(t *testing.T) {
	lib := stdcell.Default()
	for name, src := range map[string]string{
		"unknown op":    "INPUT(a)\ny = FROB(a)\n",
		"missing def":   "INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n",
		"unparseable":   "INPUT(a)\nwhat even is this\n",
		"dangling gate": "y = NOT(ghost)\n",
	} {
		if _, err := ReadBench(strings.NewReader(src), "bad", lib, 1000); err == nil {
			t.Errorf("%s: ReadBench accepted invalid input", name)
		}
	}
}

// TestReadBenchLongLines: the scanner buffer grows on demand, so a line
// far past bufio's 64 KiB default parses, and the 1 MiB line cap still
// refuses anything longer.
func TestReadBenchLongLines(t *testing.T) {
	lib := stdcell.Default()
	src := "INPUT(a)\nOUTPUT(y)\n# %s\ny = NOT(a)\n"
	long := strings.Replace(src, "%s", strings.Repeat("x", 200<<10), 1)
	n, err := ReadBench(strings.NewReader(long), "long", lib, 1000)
	if err != nil {
		t.Fatalf("200 KiB line: %v", err)
	}
	if st := Summarize(n); st.Gates != 1 {
		t.Errorf("200 KiB line: got %d gates, want 1", st.Gates)
	}
	tooLong := strings.Replace(src, "%s", strings.Repeat("x", 1<<20), 1)
	if _, err := ReadBench(strings.NewReader(tooLong), "too-long", lib, 1000); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}

func TestFullSizeProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation in -short mode")
	}
	lib := stdcell.Default()
	for _, spec := range []Spec{S38417Class(), WirelessCtrlClass(), DSPCoreClass()} {
		n, err := Generate(spec, lib)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		st := Summarize(n)
		t.Logf("%s: %d cells (%d FFs, %d gates), depth %d", spec.Name, st.Cells, st.FFs, st.Gates, st.MaxDepth)
		if st.FFs != spec.NumFF {
			t.Errorf("%s: FFs = %d, want %d", spec.Name, st.FFs, spec.NumFF)
		}
	}
}
