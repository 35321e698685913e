package flow

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// iscasFragment is a plain ISCAS'89-style .bench netlist, exercising the
// ReadBench import path end to end through the sweep.
const iscasFragment = `# differential-suite fragment
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = NAND(G0, G5)
G8 = NOR(G1, G6)
G9 = AND(G7, G8)
G10 = NAND(G9, G2)
G11 = OR(G9, G3)
G12 = NOT(G10)
G13 = XOR(G11, G5)
OUTPUT(G12)
OUTPUT(G13)
`

// diffCircuits builds every paper circuit class (at differential-suite
// scale) plus the ISCAS import, each with its paper configuration.
func diffCircuits(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	lib := stdcell.Default()
	out := make(map[string]*netlist.Netlist)
	for name, spec := range map[string]circuitgen.Spec{
		"s38417c": circuitgen.S38417Class().Scale(0.04),
		"wctrl1":  circuitgen.WirelessCtrlClass().Scale(0.15),
		"p26909c": circuitgen.DSPCoreClass().Scale(0.02),
	} {
		n, err := circuitgen.Generate(spec, lib)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = n
	}
	iscas, err := circuitgen.ReadBench(strings.NewReader(iscasFragment), "iscas-frag", lib, 8000)
	if err != nil {
		t.Fatalf("iscas: %v", err)
	}
	out["iscas-frag"] = iscas
	return out
}

// TestSweepIncrementalMatchesFull is the full-vs-incremental differential
// suite: for every paper circuit class and an ISCAS import, the
// incremental engine must reproduce the full-rerun sweep bit for bit —
// identical Metrics and byte-identical Tables 1–3 — at every worker
// count (the pool applies inside a level in incremental mode).
func TestSweepIncrementalMatchesFull(t *testing.T) {
	levels := []float64{0, 1, 3}
	for name, n := range diffCircuits(t) {
		name, n := name, n
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && (name == "wctrl1" || name == "p26909c") {
				t.Skip("heavier differential circuits skipped in -short")
			}
			cfg := ExperimentConfig(name)
			cfg.Workers = 1
			ref, err := SweepPartial(context.Background(), n, cfg, levels)
			if err != nil {
				t.Fatalf("full sweep: %v", err)
			}
			refRows := CompletedMetrics(ref)
			if len(refRows) != len(levels) {
				t.Fatalf("full sweep completed %d/%d levels: %s",
					len(refRows), len(levels), FormatSweepFailures(ref))
			}
			for _, workers := range []int{1, 2, 8} {
				icfg := cfg
				icfg.SweepMode = SweepIncremental
				icfg.Workers = workers
				got, err := SweepPartial(context.Background(), n, icfg, levels)
				if err != nil {
					t.Fatalf("incremental sweep (workers=%d): %v", workers, err)
				}
				gotRows := CompletedMetrics(got)
				if !reflect.DeepEqual(refRows, gotRows) {
					t.Fatalf("workers=%d: incremental metrics differ from full\nfull:\n%s\nincremental:\n%s",
						workers, FormatTable1(refRows), FormatTable1(gotRows))
				}
				for i, format := range []func([]Metrics) string{FormatTable1, FormatTable2, FormatTable3} {
					if f, g := format(refRows), format(gotRows); f != g {
						t.Fatalf("workers=%d: Table %d not byte-identical\nfull:\n%s\nincremental:\n%s",
							workers, i+1, f, g)
					}
				}
			}
		})
	}
}

// TestSweepIncrementalUnsortedLevels checks that a descending / shuffled
// level list still chains (ascending schedule, input-order results) and
// matches full mode.
func TestSweepIncrementalUnsortedLevels(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.04), lib)
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{3, 0, 2}
	cfg := ExperimentConfig("s38417c")
	cfg.Workers = 1
	ref, err := SweepPartial(context.Background(), n, cfg, levels)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SweepMode = SweepIncremental
	got, err := SweepPartial(context.Background(), n, cfg, levels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i].TPPercent != ref[i].TPPercent {
			t.Fatalf("level %d: result order broken: %g vs %g", i, got[i].TPPercent, ref[i].TPPercent)
		}
		if !reflect.DeepEqual(ref[i].Metrics, got[i].Metrics) {
			t.Fatalf("level %.1f%%: metrics differ", ref[i].TPPercent)
		}
	}
}

// TestRunLevelChainedArtifacts locks the chain-handle contract: artifacts
// come back after every completed level, grow their TP prefix as the
// budget rises, and a shrinking budget falls back to the pristine base
// while still matching the unchained result.
func TestRunLevelChainedArtifacts(t *testing.T) {
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.04), lib)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig("s38417c")
	cfg.Workers = 1
	base := PrewarmBase(n)

	var arts *LevelArtifacts
	lastTP := -1
	for _, pct := range []float64{0, 2, 4} {
		lr, next := RunLevelChained(context.Background(), base, cfg, pct, arts)
		if lr.Err != nil {
			t.Fatalf("level %.0f: %v", pct, lr.Err)
		}
		if next == nil {
			t.Fatalf("level %.0f: no artifacts returned", pct)
		}
		if next.TPCount() < lastTP {
			t.Fatalf("level %.0f: TP prefix shrank: %d -> %d", pct, lastTP, next.TPCount())
		}
		lastTP = next.TPCount()
		ref := RunLevel(context.Background(), base, cfg, pct)
		if !reflect.DeepEqual(ref.Metrics, lr.Metrics) {
			t.Fatalf("level %.0f: chained metrics differ from unchained", pct)
		}
		arts = next
	}

	// Budget shrinks below the prefix: cold start, still exact.
	lr, next := RunLevelChained(context.Background(), base, cfg, 1, arts)
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	ref := RunLevel(context.Background(), base, cfg, 1)
	if !reflect.DeepEqual(ref.Metrics, lr.Metrics) {
		t.Fatal("cold-start link: chained metrics differ from unchained")
	}
	if next == nil || next.TPCount() >= lastTP {
		t.Fatalf("cold-start link should return fresh, smaller artifacts (got %v)", next.TPCount())
	}
}
