package tpilayout

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestSpecByName(t *testing.T) {
	// Every accepted alias, mapped to the profile it must resolve to.
	cases := []struct {
		alias string
		want  Spec
	}{
		{"s38417", S38417Class()},
		{"s38417c", S38417Class()},
		{"circuit1", WirelessCtrlClass()},
		{"wctrl1", WirelessCtrlClass()},
		{"wireless", WirelessCtrlClass()},
		{"p26909", DSPCoreClass()},
		{"p26909c", DSPCoreClass()},
		{"dsp", DSPCoreClass()},
	}
	for _, tc := range cases {
		got, err := SpecByName(tc.alias)
		if err != nil {
			t.Errorf("SpecByName(%q): %v", tc.alias, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SpecByName(%q) = %s profile, want %s", tc.alias, got.Name, tc.want.Name)
		}
	}
	_, err := SpecByName("c17")
	if err == nil {
		t.Fatal("SpecByName accepted an unknown circuit")
	}
	// The error must list every accepted alias, so a typo points the user
	// at the full menu.
	for _, tc := range cases {
		if !strings.Contains(err.Error(), tc.alias) {
			t.Errorf("SpecByName error %q does not mention accepted alias %q", err, tc.alias)
		}
	}
}

// TestSpecByNameForgivesCaseAndWhitespace: aliases resolve regardless of
// letter case and surrounding whitespace — "S38417 " works like "s38417".
func TestSpecByNameForgivesCaseAndWhitespace(t *testing.T) {
	cases := []struct {
		alias string
		want  Spec
	}{
		{"S38417 ", S38417Class()},
		{" s38417C", S38417Class()},
		{"S38417C", S38417Class()},
		{" WCTRL1", WirelessCtrlClass()},
		{"Circuit1\t", WirelessCtrlClass()},
		{"WIRELESS", WirelessCtrlClass()},
		{"Dsp", DSPCoreClass()},
		{"  P26909c  ", DSPCoreClass()},
		{"\tP26909\n", DSPCoreClass()},
	}
	for _, tc := range cases {
		got, err := SpecByName(tc.alias)
		if err != nil {
			t.Errorf("SpecByName(%q): %v", tc.alias, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SpecByName(%q) = %s profile, want %s", tc.alias, got.Name, tc.want.Name)
		}
	}
	// Normalization must not make garbage resolve.
	if _, err := SpecByName("  C17  "); err == nil {
		t.Error("SpecByName accepted an unknown circuit after normalization")
	}
}

func TestExperimentConfigMatchesPaperSetup(t *testing.T) {
	// s38417 / circuit 1: chains of at most 100 flops, 97% utilization.
	c := ExperimentConfig("s38417c")
	if c.Scan.MaxChainLength != 100 || c.Place.TargetUtilization != 0.97 {
		t.Errorf("s38417 config = %+v", c)
	}
	// p26909: at most 32 chains, 50% utilization.
	p := ExperimentConfig("p26909c")
	if p.Scan.MaxChains != 32 || p.Place.TargetUtilization != 0.50 {
		t.Errorf("p26909 config = %+v", p)
	}
}

// TestPublicAPISweep drives the whole experiment through the public API
// and checks the paper's headline claims hold at reduced scale:
// near-linear area growth, TDV/TAT reduction, Eq. 1/2 consistency.
func TestPublicAPISweep(t *testing.T) {
	design, err := Generate(S38417Class().Scale(0.06), DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig("s38417c")
	rows, err := Sweep(design, cfg, []float64{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	base, last := rows[0], rows[2]
	if last.NumTP <= base.NumTP {
		t.Error("TP count did not grow across the sweep")
	}
	if last.Cells <= base.Cells {
		t.Error("cell count did not grow with test points")
	}
	if last.CoreArea < base.CoreArea {
		t.Error("core area shrank with test points")
	}
	for _, m := range rows {
		if m.TDV != 2*int64(m.Chains)*m.TAT {
			t.Errorf("Eq. 1/2 inconsistent at %d TPs", m.NumTP)
		}
		if m.FC < 90 || m.FE < m.FC {
			t.Errorf("coverage out of range at %d TPs: FC %.1f FE %.1f", m.NumTP, m.FC, m.FE)
		}
	}
}

// TestSweepDeterministic runs the same sweep (ATPG included) under
// several worker counts and demands identical Metrics slices: the sweep
// level pool must be invisible in the results. CI runs this under -race,
// which also makes it the data-race canary for the level pool.
func TestSweepDeterministic(t *testing.T) {
	design, err := Generate(S38417Class().Scale(0.04), DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig("s38417c")
	levels := []float64{0, 3}

	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	var ref []Metrics
	for _, w := range counts {
		c := cfg
		c.Workers = w
		rows, err := Sweep(design, c, levels)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(ref, rows) {
			t.Fatalf("sweep with %d workers diverges from %d workers:\n%+v\nvs\n%+v",
				w, counts[0], rows, ref)
		}
	}
}

func TestFormatTables(t *testing.T) {
	rows := []Metrics{
		{
			Circuit: "demo", NumTP: 0, NumFF: 100, Chains: 2, LMax: 50,
			Faults: 1000, FC: 98.5, FE: 99.1, Patterns: 200, TDV: 40000, TAT: 10000,
			Cells: 900, Rows: 10, LRows: 1000, CoreArea: 3700, FillerPct: 3,
			ChipArea: 6000, LWires: 50000,
			Timing: []DomainTiming{{Domain: "clk", TcpPS: 5000, FmaxMHz: 200,
				TWires: 100, TIntr: 2000, TLoadDep: 2700, TSetup: 110, TSkew: 90}},
		},
		{
			Circuit: "demo", NumTP: 5, NumFF: 105, Chains: 2, LMax: 53,
			Faults: 1050, FC: 98.7, FE: 99.2, Patterns: 150, TDV: 31000, TAT: 7900,
			Cells: 915, Rows: 10, LRows: 1010, CoreArea: 3737, FillerPct: 2.9,
			ChipArea: 6050, LWires: 50900,
			Timing: []DomainTiming{{Domain: "clk", TcpPS: 5250, FmaxMHz: 190.4,
				TWires: 120, TIntr: 2080, TLoadDep: 2850, TSetup: 110, TSkew: 90}},
		},
	}
	t1 := FormatTable1(rows)
	if !strings.Contains(t1, "demo") || !strings.Contains(t1, "25.0") {
		t.Errorf("Table 1 missing 25%% pattern reduction:\n%s", t1)
	}
	t2 := FormatTable2(rows)
	if !strings.Contains(t2, "+1.00") {
		t.Errorf("Table 2 missing +1.00%% core increase:\n%s", t2)
	}
	t3 := FormatTable3(rows)
	if !strings.Contains(t3, "+5.00") {
		t.Errorf("Table 3 missing +5.00%% Tcp increase:\n%s", t3)
	}
	// Baseline rows show "-" in the delta columns.
	firstLine := strings.Split(t1, "\n")[2]
	if !strings.Contains(firstLine, "-") {
		t.Errorf("baseline row lacks '-' markers: %s", firstLine)
	}
}
