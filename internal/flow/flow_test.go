package flow

import (
	"context"
	"testing"

	"tpilayout/internal/atpg"
	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/netlist"
	"tpilayout/internal/scan"
	"tpilayout/internal/stdcell"
)

func design(t testing.TB) *netlist.Netlist {
	t.Helper()
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.05), lib)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFlowStages is the Figure 2 experiment: the full pipeline runs end
// to end and produces a coherent metrics row.
func TestFlowStages(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}}
	cfg.Place.TargetUtilization = 0.90
	cfg.TPPercent = 2
	r, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics
	wantTP := int(float64(n.NumFlipFlops())*0.02 + 0.5)
	if m.NumTP != wantTP {
		t.Errorf("NumTP = %d, want %d", m.NumTP, wantTP)
	}
	if m.NumFF != n.NumFlipFlops()+wantTP {
		t.Errorf("NumFF = %d, want %d", m.NumFF, n.NumFlipFlops()+wantTP)
	}
	if m.LMax > 25 {
		t.Errorf("LMax = %d exceeds the chain limit", m.LMax)
	}
	if m.Faults == 0 || m.Patterns == 0 {
		t.Error("test-data metrics missing")
	}
	if m.FC < 80 || m.FC > 100 {
		t.Errorf("FC = %.1f%% out of range", m.FC)
	}
	if m.FE < m.FC {
		t.Errorf("FE %.1f%% < FC %.1f%%", m.FE, m.FC)
	}
	if m.TDV != 2*int64(m.Chains)*m.TAT {
		t.Error("TDV/TAT inconsistent with Eq. 1/2")
	}
	if m.CoreArea <= 0 || m.ChipArea < m.CoreArea || m.LWires <= 0 {
		t.Errorf("area metrics incoherent: %+v", m)
	}
	if len(m.Timing) != 1 || m.Timing[0].TcpPS <= 0 {
		t.Fatalf("timing metrics missing: %+v", m.Timing)
	}
	dt := m.Timing[0]
	sum := dt.TWires + dt.TIntr + dt.TLoadDep + dt.TSetup + dt.TSkew
	if diff := sum - dt.TcpPS; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("Eq. 3 violated: sum %.3f vs Tcp %.3f", sum, dt.TcpPS)
	}
	// The original design must not have been mutated.
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumFlipFlops() != 0 && r.Netlist == n {
		t.Error("flow mutated the input design")
	}
	if err := r.Netlist.Validate(); err != nil {
		t.Fatalf("flow output netlist invalid: %v", err)
	}
}

func TestBaselineHasNoTestPoints(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}, SkipATPG: true}
	cfg.Place.TargetUtilization = 0.90
	r, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.NumTP != 0 || len(r.TPs.Points) != 0 {
		t.Error("baseline run inserted test points")
	}
	if r.Metrics.NumFF != n.NumFlipFlops() {
		t.Error("baseline flop count changed")
	}
	for _, dt := range r.Metrics.Timing {
		if dt.TPOnPath != 0 {
			t.Error("baseline reports test points on the critical path")
		}
	}
}

func TestAreaGrowsWithTestPoints(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}, SkipATPG: true}
	cfg.Place.TargetUtilization = 0.90
	var prevCore, prevCells float64
	for i, pct := range []float64{0, 2.5, 5} {
		cfg.TPPercent = pct
		r, err := RunContext(context.Background(), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if float64(r.Metrics.Cells) <= prevCells {
				t.Errorf("cells did not grow at %.1f%% TPs", pct)
			}
			if r.Metrics.CoreArea < prevCore {
				t.Errorf("core area shrank at %.1f%% TPs", pct)
			}
		}
		prevCore = r.Metrics.CoreArea
		prevCells = float64(r.Metrics.Cells)
	}
}

func TestCriticalNetExclusion(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}, SkipATPG: true}
	cfg.Place.TargetUtilization = 0.90
	ex, err := CriticalNets(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) == 0 {
		t.Fatal("no critical nets identified")
	}
	cfg.TPPercent = 3
	cfg.ExcludeNets = ex
	r, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range r.TPs.Points {
		if ex[tp.Target] {
			t.Errorf("test point landed on excluded net %d", tp.Target)
		}
	}
}

func TestScanCreditRaisesCoverage(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}}
	cfg.Place.TargetUtilization = 0.90
	cfg.TPPercent = 3
	r, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := r.Faults.Counts()
	if counts[0 /*fault.Undetected*/] == 0 {
		// Fine — but scan credit must have fired for the DfT cells.
		t.Log("all faults resolved")
	}
	scanCredited := 0
	for st, c := range counts {
		if st.String() == "scan-credit" {
			scanCredited = c
		}
	}
	if scanCredited == 0 {
		t.Error("no faults credited to scan shift/flush tests despite TSFFs present")
	}
}

// TestDfTUntestableIsScanCredited: a fault on DfT infrastructure that
// capture-mode ATPG proves untestable (a test point's scan input under
// TE = 0, say) is covered by the shift and flush tests, so it ends
// ScanCredit exactly as an aborted one does.
func TestDfTUntestableIsScanCredited(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}}
	cfg.Place.TargetUtilization = 0.90
	cfg.TPPercent = 3
	r, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The flow's capture-mode ATPG again, on the final netlist and without
	// the credit, names the DfT classes it proves untestable.
	constraints := r.Scan.CaptureConstraints()
	for k, v := range r.TPs.CaptureConstraints() {
		constraints[k] = v
	}
	fresh := fault.NewUniverse(r.Netlist)
	if _, err := atpg.RunContext(context.Background(), r.Netlist, fresh, atpg.Options{Constraints: constraints}); err != nil {
		t.Fatal(err)
	}
	index := map[fault.Fault]int32{}
	for i, f := range r.Faults.Faults {
		index[f] = int32(i)
	}
	proven := 0
	for _, rep := range fresh.Reps() {
		f := fresh.Faults[rep]
		if fresh.Status(rep) != fault.Untestable || !onDfT(r.Netlist, f) {
			continue
		}
		i, ok := index[f]
		if !ok {
			continue
		}
		proven++
		if st := r.Faults.Status(i); st != fault.ScanCredit {
			t.Errorf("DfT fault %+v (%s) is proven untestable in capture mode but ends %v, want %v",
				f, r.Netlist.Nets[f.Net].Name, st, fault.ScanCredit)
		}
	}
	if proven == 0 {
		t.Fatal("capture-mode ATPG proves no DfT class untestable: nothing to check")
	}
}

// TestTimingOptRecoversSpeed exercises the Section 5 design iterations:
// upsizing critical cells and re-laying-out must not slow the circuit
// down, and buys any speed with extra cell area.
func TestTimingOptRecoversSpeed(t *testing.T) {
	n := design(t)
	cfg := Config{Scan: scan.Options{MaxChainLength: 25}, SkipATPG: true}
	cfg.Place.TargetUtilization = 0.90
	cfg.TPPercent = 3
	plain, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TimingOptRounds = 3
	tuned, err := RunContext(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tuned.Netlist.Validate(); err != nil {
		t.Fatalf("netlist invalid after timing optimization: %v", err)
	}
	if tuned.Metrics.Timing[0].TcpPS > plain.Metrics.Timing[0].TcpPS {
		t.Errorf("timing optimization slowed the circuit: %.0f -> %.0f ps",
			plain.Metrics.Timing[0].TcpPS, tuned.Metrics.Timing[0].TcpPS)
	}
	// Upsized cells are wider: the core cannot shrink.
	if tuned.Metrics.CoreArea < plain.Metrics.CoreArea {
		t.Errorf("timing optimization shrank the core: %.0f -> %.0f",
			plain.Metrics.CoreArea, tuned.Metrics.CoreArea)
	}
}
