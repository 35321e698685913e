package flow

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tpilayout/internal/netlist"
	"tpilayout/internal/scan"
)

// Error-path coverage: the flow must fail loudly, with a stage-tagged
// error, rather than produce a half-built layout.

func TestFlowRejectsMissingScanConfig(t *testing.T) {
	n := design(t)
	cfg := Config{} // neither MaxChainLength nor MaxChains
	cfg.Place.TargetUtilization = 0.9
	_, err := RunContext(context.Background(), n, cfg)
	if err == nil || !strings.Contains(err.Error(), "scan") {
		t.Fatalf("err = %v, want scan-stage failure", err)
	}
}

func TestFlowRejectsBadUtilization(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 50}}
	cfg.Place.TargetUtilization = 1.5
	_, err := RunContext(context.Background(), n, cfg)
	if err == nil || !strings.Contains(err.Error(), "place") {
		t.Fatalf("err = %v, want place-stage failure", err)
	}
}

func TestFlowRejectsOverfullTPBudget(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 50}, SkipATPG: true}
	cfg.Place.TargetUtilization = 0.9
	// A valid TP budget with every net excluded: TPI runs out of
	// insertable nets and must fail at its own stage.
	cfg.TPPercent = 50
	cfg.ExcludeNets = map[netlist.NetID]bool{}
	for id := range n.Nets {
		cfg.ExcludeNets[netlist.NetID(id)] = true
	}
	_, err := RunContext(context.Background(), n, cfg)
	if err == nil || !strings.Contains(err.Error(), "TPI") {
		t.Fatalf("err = %v, want TPI-stage failure", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageTPI {
		t.Fatalf("err = %#v, want *StageError with Stage %q", err, StageTPI)
	}
}

func TestFlowDoesNotMutateInput(t *testing.T) {
	n := design(t)
	cells, nets, ffs := n.NumLiveCells(), len(n.Nets), n.NumFlipFlops()
	cfg := Config{Scan: scan.Options{MaxChainLength: 50}, SkipATPG: true}
	cfg.Place.TargetUtilization = 0.9
	cfg.TPPercent = 2
	if _, err := RunContext(context.Background(), n, cfg); err != nil {
		t.Fatal(err)
	}
	if n.NumLiveCells() != cells || len(n.Nets) != nets || n.NumFlipFlops() != ffs {
		t.Error("flow mutated the caller's design")
	}
}
