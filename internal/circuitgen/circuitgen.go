// Package circuitgen generates the benchmark circuits for the experiments.
//
// The paper evaluates ISCAS'89 s38417 plus two proprietary Philips cores
// ("circuit 1", a two-clock-domain digital control core from a wireless
// IC, and p26909, a 24-bit DSP core). The proprietary netlists are not
// available, and the ISCAS gate lists cannot be redistributed here, so
// this package synthesizes deterministic circuits with the same published
// profiles: flip-flop count, gate count, I/O count, clock domains, logic
// depth, and — critically for TPI experiments — a population of
// random-pattern-resistant cones (wide AND trees and deep reconvergent
// logic) whose detection probability is low enough that test points
// meaningfully reduce the deterministic pattern count.
package circuitgen

import (
	"fmt"
	"math/rand"
	"strings"

	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// DomainSpec describes one clock domain of a generated circuit.
type DomainSpec struct {
	Name     string
	PeriodPS float64 // target period (reporting only)
	Frac     float64 // fraction of flip-flops in this domain
}

// Spec parameterizes circuit generation. All randomness derives from Seed,
// so a Spec is a complete, reproducible circuit description.
type Spec struct {
	Name     string
	Seed     int64
	NumPI    int // non-clock primary inputs
	NumPO    int
	NumFF    int
	NumGates int // combinational gate target (excluding hard-cone gates)
	Domains  []DomainSpec

	// HardGroups inserts this many random-pattern-resistant structures.
	// Each group is SubCones parallel AND trees of HardWidth
	// scan-controllable leaves whose outputs meet in an AND collector:
	// observing any subcone requires every sibling at 1, so the faults
	// inside different subcones have pairwise-conflicting detection
	// requirements and each needs (nearly) its own pattern — until test
	// points at the subcone outputs decouple them. This is the fault
	// population that makes TPI pay off in the paper's Table 1.
	HardGroups int
	SubCones   int
	HardWidth  int

	// CarryChains/CarryLen add datapath-style ripple carry chains (used
	// by the DSP-core profile): CarryChains chains of CarryLen full-adder
	// stages each.
	CarryChains int
	CarryLen    int

	// MaxDepth bounds the combinational depth of the random logic
	// (default 24): real register-to-register logic is depth-limited by
	// the clock period, and unbounded depth makes both ATPG and timing
	// unrealistically hard. Hard cones and carry chains may exceed it.
	MaxDepth int
}

// Scale returns a copy of the spec with all size parameters multiplied by
// f (minimum sizes enforced), keeping the structural character intact.
// Tests run scaled-down clones of the full-size experiment circuits.
func (s Spec) Scale(f float64) Spec {
	min := func(v, lo int) int {
		if v < lo {
			return lo
		}
		return v
	}
	out := s
	out.NumPI = min(int(float64(s.NumPI)*f), 4)
	out.NumPO = min(int(float64(s.NumPO)*f), 4)
	out.NumFF = min(int(float64(s.NumFF)*f), 8)
	out.NumGates = min(int(float64(s.NumGates)*f), 40)
	out.HardGroups = min(int(float64(s.HardGroups)*f), 1)
	out.CarryChains = int(float64(s.CarryChains) * f)
	if s.CarryChains > 0 && out.CarryChains < 1 {
		out.CarryChains = 1
	}
	return out
}

// SpecByName resolves the experiment circuits by their paper names.
// Matching is case-insensitive and ignores surrounding whitespace, so
// "S38417 " resolves like "s38417".
func SpecByName(name string) (Spec, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "s38417", "s38417c":
		return S38417Class(), nil
	case "circuit1", "wctrl1", "wireless":
		return WirelessCtrlClass(), nil
	case "p26909", "p26909c", "dsp":
		return DSPCoreClass(), nil
	}
	return Spec{}, fmt.Errorf("tpilayout: unknown circuit %q (want s38417, s38417c, circuit1, wctrl1, wireless, p26909, p26909c, or dsp)", name)
}

// S38417Class is the profile of ISCAS'89 s38417 as reported in the paper:
// 1,636 flip-flops and roughly 23k placed cells, single clock domain.
func S38417Class() Spec {
	return Spec{
		Name:       "s38417c",
		Seed:       38417,
		NumPI:      28,
		NumPO:      106,
		NumFF:      1636,
		NumGates:   20500,
		Domains:    []DomainSpec{{Name: "clk", PeriodPS: 8000, Frac: 1.0}},
		HardGroups: 3,
		SubCones:   8,
		HardWidth:  12,
	}
}

// WirelessCtrlClass is the profile of the paper's "circuit 1": a digital
// control core of a wireless-communication IC with two clock domains whose
// application targets are 8 MHz and 64 MHz.
func WirelessCtrlClass() Spec {
	return Spec{
		Name:     "wctrl1",
		Seed:     22810,
		NumPI:    64,
		NumPO:    96,
		NumFF:    3392,
		NumGates: 29000,
		Domains: []DomainSpec{
			{Name: "clk8m", PeriodPS: 125000, Frac: 0.45},
			{Name: "clk64m", PeriodPS: 15625, Frac: 0.55},
		},
		HardGroups: 5,
		SubCones:   8,
		HardWidth:  11,
	}
}

// DSPCoreClass is the profile of Philips p26909: a 24-bit DSP core, much
// larger and datapath-dominated, tested through at most 32 scan chains and
// placed at only 50% row utilization.
func DSPCoreClass() Spec {
	return Spec{
		Name:        "p26909c",
		Seed:        26909,
		NumPI:       96,
		NumPO:       128,
		NumFF:       5216,
		NumGates:    88000,
		Domains:     []DomainSpec{{Name: "clk", PeriodPS: 7143, Frac: 1.0}}, // 140 MHz target
		HardGroups:  7,
		SubCones:    8,
		HardWidth:   12,
		CarryChains: 96,
		CarryLen:    24,
	}
}

// Generate builds the netlist for a spec against the given library.
// The result is validated and returned packed (see netlist.Clone), with
// the CSR and levelization that validation built.
func Generate(spec Spec, lib *stdcell.Library) (*netlist.Netlist, error) {
	if len(spec.Domains) == 0 {
		return nil, fmt.Errorf("circuitgen: spec %s has no clock domains", spec.Name)
	}
	g := &gen{
		spec: spec,
		lib:  lib,
		rng:  rand.New(rand.NewSource(spec.Seed)),
		n:    netlist.New(spec.Name, lib),
	}
	g.build()
	if err := g.n.Validate(); err != nil {
		return nil, fmt.Errorf("circuitgen: generated invalid netlist: %w", err)
	}
	return g.n.Clone(), nil
}

type gen struct {
	spec Spec
	lib  *stdcell.Library
	rng  *rand.Rand
	n    *netlist.Netlist

	pool    []netlist.NetID // nets available as gate inputs
	depth   map[netlist.NetID]int
	used    map[netlist.NetID]int
	gateSeq int
	netSeq  int
	ffD     []netlist.NetID // pre-created nets that will become FF d-inputs
	clkNets []netlist.NetID
}

func (g *gen) build() {
	spec, n := g.spec, g.n
	g.used = make(map[netlist.NetID]int)
	g.depth = make(map[netlist.NetID]int)
	if g.spec.MaxDepth <= 0 {
		g.spec.MaxDepth = 24
	}

	for di, d := range spec.Domains {
		clk, dom := n.AddClockPI(d.Name, d.PeriodPS)
		if dom != di {
			panic("circuitgen: domain index mismatch")
		}
		g.clkNets = append(g.clkNets, clk)
	}
	for i := 0; i < spec.NumPI; i++ {
		g.pool = append(g.pool, n.AddPI(fmt.Sprintf("pi%d", i)))
	}

	// Flip-flops first: their Q nets seed the combinational pool and their
	// D nets are filled in at the end, giving full sequential feedback.
	domOf := g.assignDomains()
	for i := 0; i < spec.NumFF; i++ {
		q := n.AddNet(fmt.Sprintf("ffq%d", i))
		d := n.AddNet(fmt.Sprintf("ffd%d", i))
		dom := domOf[i]
		ff := n.AddCell(fmt.Sprintf("ff%d", i),
			g.lib.MustCell("DFFX1"),
			[]netlist.NetID{d, g.clkNets[dom]}, q)
		n.Cells[ff].Domain = dom
		g.pool = append(g.pool, q)
		g.ffD = append(g.ffD, d)
	}

	// Hard groups are built before the random logic so their collector
	// outputs are reused downstream: a TSFF inserted at a subcone output
	// then sits on real functional paths, giving TPI its timing cost.
	g.carryChains()
	g.hardGroups()
	g.randomLogic()
	g.closeFFInputs()
	g.closePOs()
}

// assignDomains deterministically spreads flip-flops over domains by Frac.
func (g *gen) assignDomains() []int {
	out := make([]int, g.spec.NumFF)
	if len(g.spec.Domains) == 1 {
		return out
	}
	// Cumulative fractions; FF i goes to the first domain whose cumulative
	// share covers i/NumFF.
	for i := range out {
		x := (float64(i) + 0.5) / float64(g.spec.NumFF)
		acc := 0.0
		for di, d := range g.spec.Domains {
			acc += d.Frac
			if x <= acc || di == len(g.spec.Domains)-1 {
				out[i] = di
				break
			}
		}
	}
	return out
}

// pick selects a random pool net, biased toward recent (local) and
// little-used nets so fanout stays realistic, and rejecting nets at the
// depth budget so inter-register logic stays clock-period shaped.
func (g *gen) pick() netlist.NetID {
	p := g.pool
	var id netlist.NetID
	for try := 0; ; try++ {
		if g.rng.Float64() < 0.7 && len(p) > 64 {
			// Locality: draw from the most recent window.
			id = p[len(p)-1-g.rng.Intn(64)]
		} else {
			id = p[g.rng.Intn(len(p))]
		}
		if try >= 6 {
			break
		}
		if g.used[id] >= 5 || g.depth[id] >= g.spec.MaxDepth {
			continue
		}
		break
	}
	g.used[id]++
	return id
}

func (g *gen) newNet() netlist.NetID {
	g.netSeq++
	return g.n.AddNet(fmt.Sprintf("w%d", g.netSeq))
}

func (g *gen) addGate(cell *stdcell.Cell, ins []netlist.NetID) netlist.NetID {
	out := g.newNet()
	g.gateSeq++
	g.n.AddCell(fmt.Sprintf("g%d", g.gateSeq), cell, ins, out)
	d := 0
	for _, in := range ins {
		if g.depth[in] > d {
			d = g.depth[in]
		}
	}
	g.depth[out] = d + 1
	return out
}

// gateMix is the weighted standard-cell mix of the random logic. The blend
// approximates a mapped control-logic netlist: inverter/buffer rich, NAND
// dominated, with a sprinkling of XORs and complex gates.
var gateMix = []struct {
	name   string
	weight int
}{
	{"INVX1", 16},
	{"BUFX1", 4},
	{"NAND2X1", 22},
	{"NAND3X1", 7},
	{"NAND4X1", 3},
	{"NOR2X1", 12},
	{"NOR3X1", 4},
	{"AND2X1", 8},
	{"OR2X1", 7},
	{"XOR2X1", 5},
	{"XNOR2X1", 3},
	{"AOI21X1", 5},
	{"OAI21X1", 4},
	{"MUX2X1", 4},
}

var gateMixTotal = func() int {
	t := 0
	for _, m := range gateMix {
		t += m.weight
	}
	return t
}()

func (g *gen) randomGateCell() *stdcell.Cell {
	r := g.rng.Intn(gateMixTotal)
	for _, m := range gateMix {
		if r < m.weight {
			return g.lib.MustCell(m.name)
		}
		r -= m.weight
	}
	panic("unreachable")
}

func (g *gen) randomLogic() {
	for g.gateSeq < g.spec.NumGates {
		cell := g.randomGateCell()
		ins := make([]netlist.NetID, len(cell.Inputs))
		for i := range ins {
			ins[i] = g.pickDistinct(ins[:i])
		}
		g.pool = append(g.pool, g.addGate(cell, ins))
	}
}

// pickDistinct picks a pool net that is neither already present in taken
// nor immediately reconvergent with a taken net (one net being a direct
// fan-in of the other's driver). Duplicated or shallowly-reconvergent gate
// inputs create redundant faults at rates real mapped netlists do not
// have; the retry count is bounded so tiny pools still terminate.
func (g *gen) pickDistinct(taken []netlist.NetID) netlist.NetID {
	for try := 0; try < 12; try++ {
		id := g.pick()
		ok := true
		for _, t := range taken {
			if t == id || g.directFanin(t, id) || g.directFanin(id, t) {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	return g.pick()
}

// directFanin reports whether net b is a direct input of net a's driver.
func (g *gen) directFanin(a, b netlist.NetID) bool {
	d := g.n.Nets[a].Driver
	if d == netlist.NoCell {
		return false
	}
	for _, in := range g.n.Cells[d].Ins {
		if in == b {
			return true
		}
	}
	return false
}

// hardGroups builds the random-pattern-resistant structures: per group,
// SubCones parallel AND trees over distinct flip-flop outputs (so any
// single activation is deterministically solvable through the scan
// chain), joined by an AND collector that is XOR-mixed back into the
// pool. Observing a fault in one subcone requires every sibling subcone
// at 1, so detection requirements conflict pairwise across subcones: the
// pattern count stays high until test points at the subcone outputs
// break the conflicts.
func (g *gen) hardGroups() {
	if g.spec.HardGroups == 0 {
		return
	}
	and2 := g.lib.MustCell("AND2X1")
	xor2 := g.lib.MustCell("XOR2X1")
	k := g.spec.SubCones
	if k < 2 {
		k = 2
	}
	w := g.spec.HardWidth
	if w < 3 {
		w = 3
	}
	// Distinct flip-flop leaves per group, drawn round-robin from a
	// shuffled list so small circuits still work (leaves may repeat
	// across groups, never within one).
	ffQ := make([]netlist.NetID, 0, g.spec.NumFF)
	for _, ff := range g.n.FlipFlops() {
		ffQ = append(ffQ, g.n.Cells[ff].Out)
	}
	g.rng.Shuffle(len(ffQ), func(i, j int) { ffQ[i], ffQ[j] = ffQ[j], ffQ[i] })
	if k*w > len(ffQ) {
		w = len(ffQ) / k
		if w < 3 {
			w = 3
		}
	}
	next := 0
	leaf := func() netlist.NetID {
		id := ffQ[next%len(ffQ)]
		next++
		g.used[id]++
		return id
	}
	reduceAnd := func(layer []netlist.NetID) netlist.NetID {
		for len(layer) > 1 {
			var up []netlist.NetID
			for i := 0; i+1 < len(layer); i += 2 {
				up = append(up, g.addGate(and2, []netlist.NetID{layer[i], layer[i+1]}))
			}
			if len(layer)%2 == 1 {
				up = append(up, layer[len(layer)-1])
			}
			layer = up
		}
		return layer[0]
	}
	for grp := 0; grp < g.spec.HardGroups; grp++ {
		next = (grp * k * w) % len(ffQ)
		outs := make([]netlist.NetID, k)
		for sc := 0; sc < k; sc++ {
			leaves := make([]netlist.NetID, w)
			for i := range leaves {
				leaves[i] = leaf()
			}
			outs[sc] = reduceAnd(leaves)
		}
		collector := reduceAnd(outs)
		mixed := g.addGate(xor2, []netlist.NetID{collector, g.pick()})
		g.pool = append(g.pool, mixed)
	}
}

// carryChains builds ripple-carry datapath slices: ci+1 = maj(a,b,ci),
// sum = a XOR b XOR ci. Long sensitized chains give the DSP profile its
// deep paths and characteristic STA behaviour.
func (g *gen) carryChains() {
	if g.spec.CarryChains == 0 {
		return
	}
	xor2 := g.lib.MustCell("XOR2X1")
	and2 := g.lib.MustCell("AND2X1")
	or2 := g.lib.MustCell("OR2X1")
	for c := 0; c < g.spec.CarryChains; c++ {
		carry := g.pick()
		for s := 0; s < g.spec.CarryLen; s++ {
			a, b := g.pick(), g.pick()
			axb := g.addGate(xor2, []netlist.NetID{a, b})
			sum := g.addGate(xor2, []netlist.NetID{axb, carry})
			t1 := g.addGate(and2, []netlist.NetID{a, b})
			t2 := g.addGate(and2, []netlist.NetID{axb, carry})
			carry = g.addGate(or2, []netlist.NetID{t1, t2})
			g.pool = append(g.pool, sum)
		}
		g.pool = append(g.pool, carry)
	}
}

// closeFFInputs drives every flip-flop D net from the pool, preferring
// nets that are still unused so the logic stays observable.
func (g *gen) closeFFInputs() {
	unused := g.unusedNets()
	buf := g.lib.MustCell("BUFX1")
	for i, d := range g.ffD {
		var src netlist.NetID
		if len(unused) > 0 {
			src, unused = unused[len(unused)-1], unused[:len(unused)-1]
		} else {
			src = g.pick()
		}
		// A buffer decouples the D net so it has exactly one driver.
		g.gateSeq++
		g.n.AddCell(fmt.Sprintf("fdrv%d", i), buf, []netlist.NetID{src}, d)
		g.used[src]++
	}
}

// closePOs connects primary outputs; leftover unused nets are folded into
// XOR collector trees so no logic is structurally unobservable.
func (g *gen) closePOs() {
	unused := g.unusedNets()
	xor2 := g.lib.MustCell("XOR2X1")
	for i := 0; i < g.spec.NumPO; i++ {
		var src netlist.NetID
		switch {
		case len(unused) >= 2 && i < g.spec.NumPO/2:
			// Fold up to 8 unused nets into one observed parity tree.
			k := 8
			if k > len(unused) {
				k = len(unused)
			}
			src = unused[0]
			g.used[src]++
			for j := 1; j < k; j++ {
				g.used[unused[j]]++
				src = g.addGate(xor2, []netlist.NetID{src, unused[j]})
			}
			unused = unused[k:]
		case len(unused) > 0:
			src, unused = unused[0], unused[1:]
			g.used[src]++
		default:
			src = g.pick()
		}
		g.n.AddPO(fmt.Sprintf("po%d", i), src)
	}
	// Anything still unused is observed through a final parity net on the
	// last PO — cheap and keeps fault coverage meaningful.
	if len(unused) > 0 {
		acc := unused[0]
		g.used[acc]++
		for _, u := range unused[1:] {
			g.used[u]++
			acc = g.addGate(xor2, []netlist.NetID{acc, u})
		}
		g.n.AddPO("po_sink", acc)
	}
}

// unusedNets lists pool nets that currently drive nothing, oldest first.
func (g *gen) unusedNets() []netlist.NetID {
	var out []netlist.NetID
	for _, id := range g.pool {
		if g.used[id] == 0 {
			out = append(out, id)
		}
	}
	return out
}
