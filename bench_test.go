package tpilayout

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section:
//
//	BenchmarkTable1_*  — Table 1 (test data: FC/FE, patterns, TDV, TAT)
//	BenchmarkTable2_*  — Table 2 (silicon area: rows, core, filler, chip, wires)
//	BenchmarkTable3_*  — Table 3 (timing: Tcp and its Eq. 3 split, Fmax)
//	BenchmarkFigure3   — the three layout views
//
// plus ablation benches for the design choices discussed in the paper:
//
//	BenchmarkAblationCPExclusion  — TPI with vs. without critical-path exclusion (§5)
//	BenchmarkAblationReorder      — layout-driven scan reordering vs. netlist order (flow step 3)
//	BenchmarkAblationTPBudget     — pattern count vs. TP% ("levels off" observation)
//
// Dynamic compaction's effect on the pattern count is asserted by
// TestDynamicCompactionPaysOff in internal/atpg.
//
// The circuits default to a reduced scale so `go test -bench=.` finishes
// in minutes; set TPI_BENCH_SCALE (e.g. 1.0) to run the paper-size
// circuits. Key quantities are attached to the benchmark output via
// ReportMetric, and the rendered tables are logged.

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"tpilayout/internal/layoutviz"
	"tpilayout/internal/scan"
	"tpilayout/internal/tpi"
)

// tpilayoutInsertTPs replays flow step 1's TPI for the reorder ablation.
func tpilayoutInsertTPs(n *Netlist, cfg Config) (*tpi.Result, error) {
	count := int(math.Round(cfg.TPPercent / 100 * float64(n.NumFlipFlops())))
	return tpi.Insert(n, tpi.Options{Count: count})
}

// benchScale returns the circuit scale for benches (default 0.08).
func benchScale() float64 {
	if s := os.Getenv("TPI_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.08
}

var benchLevels = []float64{0, 1, 3, 5}

// benchDesign builds a bench circuit at the bench scale.
func benchDesign(b *testing.B, name string) (*Netlist, Config) {
	b.Helper()
	spec, err := SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if s := benchScale(); s != 1.0 {
		spec = spec.Scale(s)
	}
	design, err := Generate(spec, DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	return design, ExperimentConfig(name)
}

// reduction returns the percentage drop from the first to the last row.
func reduction(first, last float64) float64 {
	if first == 0 {
		return 0
	}
	return 100 * (first - last) / first
}

func benchTable1(b *testing.B, circuit string) {
	// The heavy circuits dominate a full bench run (DSPCore is ~85 s/op
	// at the default scale); -short keeps the Table-1 pass to the
	// s38417-class circuit so `go test -short -bench .` stays a smoke.
	if testing.Short() && circuit != "s38417c" {
		b.Skipf("%s Table-1 sweep skipped in -short (slow at default scale)", circuit)
	}
	design, cfg := benchDesign(b, circuit)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := Sweep(design, cfg, benchLevels)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(rows[0].Patterns), "patterns_base")
		b.ReportMetric(float64(last.Patterns), "patterns_tp5")
		b.ReportMetric(reduction(float64(rows[0].TDV), float64(last.TDV)), "TDVdec_%")
		b.ReportMetric(last.FC-rows[0].FC, "FCdelta_pp")
		if i == 0 {
			b.Log("\n" + FormatTable1(rows))
		}
	}
}

func benchTable2(b *testing.B, circuit string) {
	design, cfg := benchDesign(b, circuit)
	b.ReportAllocs()
	cfg.SkipATPG = true
	for i := 0; i < b.N; i++ {
		rows, err := Sweep(design, cfg, benchLevels)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(-reduction(rows[0].CoreArea, last.CoreArea), "coreInc_%_tp5")
		b.ReportMetric(-reduction(rows[0].ChipArea, last.ChipArea), "chipInc_%_tp5")
		b.ReportMetric(last.FillerPct, "filler_%")
		if i == 0 {
			b.Log("\n" + FormatTable2(rows))
		}
	}
}

func benchTable3(b *testing.B, circuit string) {
	design, cfg := benchDesign(b, circuit)
	b.ReportAllocs()
	cfg.SkipATPG = true
	for i := 0; i < b.N; i++ {
		rows, err := Sweep(design, cfg, benchLevels)
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0].Timing[0], rows[len(rows)-1].Timing[0]
		b.ReportMetric(-reduction(first.TcpPS, last.TcpPS), "TcpInc_%_tp5")
		b.ReportMetric(last.FmaxMHz, "Fmax_MHz_tp5")
		b.ReportMetric(float64(last.TPOnPath), "TPonPath_tp5")
		if i == 0 {
			b.Log("\n" + FormatTable3(rows))
		}
	}
}

func BenchmarkTable1_S38417(b *testing.B)       { benchTable1(b, "s38417c") }
func BenchmarkTable1_WirelessCtrl(b *testing.B) { benchTable1(b, "wctrl1") }
func BenchmarkTable1_DSPCore(b *testing.B)      { benchTable1(b, "p26909c") }

func BenchmarkTable2_S38417(b *testing.B)       { benchTable2(b, "s38417c") }
func BenchmarkTable2_WirelessCtrl(b *testing.B) { benchTable2(b, "wctrl1") }
func BenchmarkTable2_DSPCore(b *testing.B)      { benchTable2(b, "p26909c") }

func BenchmarkTable3_S38417(b *testing.B)       { benchTable3(b, "s38417c") }
func BenchmarkTable3_WirelessCtrl(b *testing.B) { benchTable3(b, "wctrl1") }
func BenchmarkTable3_DSPCore(b *testing.B)      { benchTable3(b, "p26909c") }

// BenchmarkFigure3 reproduces the three layout views of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	design, cfg := benchDesign(b, "s38417c")
	b.ReportAllocs()
	cfg.TPPercent = 1
	cfg.SkipATPG = true
	for i := 0; i < b.N; i++ {
		res, err := Run(design, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, st := range []layoutviz.Stage{layoutviz.StageFloorplan, layoutviz.StagePlacement, layoutviz.StageRouted} {
			total += len(layoutviz.SVG(res.Place, res.Route, st))
		}
		b.ReportMetric(float64(total), "svg_bytes")
	}
}

// BenchmarkAblationCPExclusion compares timing impact of TPI with and
// without critical-path exclusion (the Section 5 technique): exclusion
// should recover part of the Tcp increase.
func BenchmarkAblationCPExclusion(b *testing.B) {
	design, cfg := benchDesign(b, "s38417c")
	b.ReportAllocs()
	cfg.SkipATPG = true
	for i := 0; i < b.N; i++ {
		base, err := Run(design, cfg)
		if err != nil {
			b.Fatal(err)
		}
		free := cfg
		free.TPPercent = 3
		withTP, err := Run(design, free)
		if err != nil {
			b.Fatal(err)
		}
		ex, err := CriticalNets(design, cfg)
		if err != nil {
			b.Fatal(err)
		}
		excl := free
		excl.ExcludeNets = ex
		withExcl, err := Run(design, excl)
		if err != nil {
			b.Fatal(err)
		}
		t0 := base.Metrics.Timing[0].TcpPS
		b.ReportMetric(-reduction(t0, withTP.Metrics.Timing[0].TcpPS), "TcpInc_%_noExcl")
		b.ReportMetric(-reduction(t0, withExcl.Metrics.Timing[0].TcpPS), "TcpInc_%_excl")
		b.ReportMetric(float64(withExcl.Metrics.Timing[0].TPOnPath), "TPonPath_excl")
	}
}

// BenchmarkAblationReorder quantifies the wire length saved by the
// layout-driven scan chain reordering of flow step 3.
func BenchmarkAblationReorder(b *testing.B) {
	design, cfg := benchDesign(b, "s38417c")
	b.ReportAllocs()
	cfg.SkipATPG = true
	cfg.TPPercent = 1
	for i := 0; i < b.N; i++ {
		res, err := Run(design, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Reconstruct the pre-reorder (netlist-order) chain wire length
		// on the same placement.
		n := design.Clone()
		tps, err := tpilayoutInsertTPs(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := scan.Insert(n, tps, cfg.Scan)
		if err != nil {
			b.Fatal(err)
		}
		naive := scan.WireLength(sc, res.Place.Pos)
		ordered := scan.WireLength(res.Scan, res.Place.Pos)
		b.ReportMetric(naive, "chainWL_netlistOrder_um")
		b.ReportMetric(ordered, "chainWL_reordered_um")
		b.ReportMetric(reduction(naive, ordered), "WLsaved_%")
	}
}

// BenchmarkAblationTPBudget traces pattern count against the TP budget,
// the paper's "inserting 1% to 3% test points usually is sufficient"
// observation: the curve must flatten.
func BenchmarkAblationTPBudget(b *testing.B) {
	design, cfg := benchDesign(b, "s38417c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := Sweep(design, cfg, []float64{0, 1, 2, 3, 4, 5})
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, m := range rows {
			out += fmt.Sprintf(" %d:%d", m.NumTP, m.Patterns)
		}
		first := reduction(float64(rows[0].Patterns), float64(rows[2].Patterns)) // by 2%
		total := reduction(float64(rows[0].Patterns), float64(rows[5].Patterns)) // by 5%
		b.ReportMetric(first, "patDec_%_by2pct")
		b.ReportMetric(total, "patDec_%_by5pct")
		if i == 0 {
			b.Log("patterns per TP count:" + out)
		}
	}
}

// BenchmarkAblationTimingOpt runs the Section 5 timing-optimization
// design iterations: speed recovered after TPI, paid for with core area.
func BenchmarkAblationTimingOpt(b *testing.B) {
	design, cfg := benchDesign(b, "s38417c")
	b.ReportAllocs()
	cfg.SkipATPG = true
	cfg.TPPercent = 3
	for i := 0; i < b.N; i++ {
		plain, err := Run(design, cfg)
		if err != nil {
			b.Fatal(err)
		}
		optCfg := cfg
		optCfg.TimingOptRounds = 3
		tuned, err := Run(design, optCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain.Metrics.Timing[0].TcpPS, "Tcp_ps_areaOnly")
		b.ReportMetric(tuned.Metrics.Timing[0].TcpPS, "Tcp_ps_timingOpt")
		b.ReportMetric(100*(tuned.Metrics.CoreArea-plain.Metrics.CoreArea)/plain.Metrics.CoreArea, "coreCost_%")
	}
}
