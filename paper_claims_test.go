package tpilayout

// TestPaperClaims checks the paper's ablations and design-choice claims
// as inequalities on reduced-scale circuits. Every measured value is
// logged, so `go test -run TestPaperClaims -v .` prints the numbers the
// claims rest on. The tables themselves come from cmd/tpitables (pinned
// by TestSweepGolden) and Figure 3 from cmd/layoutviz (TestRenderStages).
//
// The flow is deterministic, so each value is exact for this code; a
// subtest fails only when a change moves the tables far enough to
// reverse a claim.

import (
	"testing"

	"tpilayout/internal/scan"
	"tpilayout/internal/tpi"
)

func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 19 reduced-scale layouts; skipped in -short")
	}

	// §5: blocking the baseline's critical nets from TPI lowers the Tcp
	// growth that test points cause.
	t.Run("cp_exclusion", func(t *testing.T) {
		design, cfg := claimDesign(t, "s38417c", 0.08)
		cfg.SkipATPG = true
		base := claimRun(t, design, cfg)
		exclude, err := CriticalNets(design, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TPPercent = 3
		free := claimRun(t, design, cfg)
		cfg.ExcludeNets = exclude
		excl := claimRun(t, design, cfg)

		t0 := base.Metrics.Timing[0].TcpPS
		growFree := pctChange(t0, free.Metrics.Timing[0].TcpPS)
		growExcl := pctChange(t0, excl.Metrics.Timing[0].TcpPS)
		t.Logf("%d critical nets excluded; Tcp %.0f ps at 0 TPs", len(exclude), t0)
		t.Logf("Tcp growth at 3%% TPs: %+.2f%% without exclusion, %+.2f%% with", growFree, growExcl)
		t.Logf("TPs on the critical path: %d without exclusion, %d with",
			free.Metrics.Timing[0].TPOnPath, excl.Metrics.Timing[0].TPOnPath)
		if growExcl >= growFree {
			t.Errorf("Tcp growth with CP exclusion %+.2f%% is not below %+.2f%% without", growExcl, growFree)
		}
	})

	// Flow step 3: layout-driven reordering cuts the scan-chain wire
	// against netlist order by more than half.
	t.Run("reorder", func(t *testing.T) {
		design, cfg := claimDesign(t, "s38417c", 0.08)
		cfg.SkipATPG = true
		cfg.TPPercent = 1
		res := claimRun(t, design, cfg)
		// The same TPI and scan insertion without the reorder step, wired
		// on the flow's own placement.
		n := design.Clone()
		tps, err := tpi.Insert(n, tpi.Options{Count: res.Metrics.NumTP})
		if err != nil {
			t.Fatal(err)
		}
		chains, err := scan.Insert(n, tps, cfg.Scan)
		if err != nil {
			t.Fatal(err)
		}
		naive := scan.WireLength(chains, res.Place.Pos)
		ordered := scan.WireLength(res.Scan, res.Place.Pos)
		t.Logf("scan-chain wire: %.0f µm in netlist order, %.0f µm reordered (%+.1f%%)",
			naive, ordered, pctChange(naive, ordered))
		if ordered >= naive/2 {
			t.Errorf("reordering cut scan wire %.0f -> %.0f µm, not by more than 50%%", naive, ordered)
		}
	})

	// §5: timing optimisation buys speed with silicon area. At ×0.05 the
	// core area falls instead, so the scale is part of the claim.
	t.Run("timing_opt", func(t *testing.T) {
		design, cfg := claimDesign(t, "s38417c", 0.08)
		cfg.SkipATPG = true
		cfg.TPPercent = 3
		plain := claimRun(t, design, cfg)
		cfg.TimingOptRounds = 3
		tuned := claimRun(t, design, cfg)
		dTcp := pctChange(plain.Metrics.Timing[0].TcpPS, tuned.Metrics.Timing[0].TcpPS)
		dCore := pctChange(plain.Metrics.CoreArea, tuned.Metrics.CoreArea)
		t.Logf("Tcp %.0f -> %.0f ps (%+.1f%%), core %.0f -> %.0f µm² (%+.2f%%)",
			plain.Metrics.Timing[0].TcpPS, tuned.Metrics.Timing[0].TcpPS, dTcp,
			plain.Metrics.CoreArea, tuned.Metrics.CoreArea, dCore)
		if dTcp >= 0 || dCore <= 0 {
			t.Errorf("timing optimisation moved Tcp %+.1f%% and core area %+.2f%%, want Tcp down and area up", dTcp, dCore)
		}
	})

	// "Inserting 1% to 3% test points usually is sufficient": patterns
	// fall with the TP budget and the curve flattens.
	t.Run("tp_budget", func(t *testing.T) {
		design, cfg := claimDesign(t, "s38417c", 0.05)
		levels := []float64{0, 1, 2, 3, 4, 5}
		rows, err := Sweep(design, cfg, levels)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range rows {
			t.Logf("%g%% TPs (%d points): %d patterns", levels[i], m.NumTP, m.Patterns)
		}
		p0, p2, p5 := rows[0].Patterns, rows[2].Patterns, rows[5].Patterns
		if p5 >= p0 {
			t.Errorf("patterns at 5%% TPs (%d) not below 0%% (%d)", p5, p0)
		}
		if p0-p2 <= p2-p5 {
			t.Errorf("drop over 0-2%% (%d) does not beat the drop over 2-5%% (%d): the curve does not flatten", p0-p2, p2-p5)
		}
	})

	// Circuit 1 stays far faster than both application clocks after TPI.
	t.Run("wctrl1_targets", func(t *testing.T) {
		design, cfg := claimDesign(t, "wctrl1", 0.1)
		cfg.SkipATPG = true
		rows, err := Sweep(design, cfg, []float64{0, 1, 2, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		targets := map[string]float64{"clk8m": 8, "clk64m": 64}
		for _, m := range rows {
			for _, d := range m.Timing {
				target, ok := targets[d.Domain]
				if !ok {
					t.Fatalf("unexpected clock domain %q", d.Domain)
				}
				t.Logf("%d TPs, %s: Fmax %.1f MHz against %.0f MHz", m.NumTP, d.Domain, d.FmaxMHz, target)
				if d.FmaxMHz <= target {
					t.Errorf("%d TPs: %s Fmax %.1f MHz misses its %.0f MHz target", m.NumTP, d.Domain, d.FmaxMHz, target)
				}
			}
		}
	})
}

// claimDesign generates the named paper circuit at scale with its
// experiment preset.
func claimDesign(t *testing.T, name string, scale float64) (*Netlist, Config) {
	t.Helper()
	spec, err := SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	design, err := Generate(spec.Scale(scale), DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return design, ExperimentConfig(name)
}

func claimRun(t *testing.T, design *Netlist, cfg Config) *Result {
	t.Helper()
	res, err := Run(design, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pctChange is the signed change from before to after, in percent.
func pctChange(before, after float64) float64 {
	return 100 * (after - before) / before
}
