package atpg

import (
	"context"
	"math/rand"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/fault"
	"tpilayout/internal/logicsim"
	"tpilayout/internal/netlist"
	"tpilayout/internal/scan"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/tpi"
)

// refDetects is the parallel-pattern single-fault-propagation simulator
// the package had before region simulation, kept as the reference the
// region words are compared against: the fault is injected at its site
// and its own difference cone is propagated event by event to the sinks.
// It returns the word of patterns of the last SimGood batch that detect f.
func (fs *faultSim) refDetects(f fault.Fault, b *Batch) uint64 {
	m := b.mask()
	sa := uint64(0)
	if f.SA == 1 {
		sa = ^uint64(0)
	}
	act := (fs.good[f.Net] ^ sa) & m
	if act == 0 {
		return 0
	}
	fs.epoch++
	var det uint64

	var faultCell netlist.CellID = netlist.NoCell
	faultPin := -1
	if f.Load == fault.StemLoad {
		fs.setFval(f.Net, sa)
		if fs.v.IsSink[f.Net] {
			det |= act
		}
		fs.enqueueLoads(f.Net)
	} else {
		ld := fs.v.fanout(f.Net)[f.Load]
		if ld.Cell == netlist.NoCell {
			return act
		}
		if !fs.v.Comb(ld.Cell) {
			c := &fs.v.N.Cells[ld.Cell]
			if c.Cell.Kind.IsSequential() && c.Cell.FindInput("d") == int(ld.Pin) {
				return act
			}
			return 0
		}
		faultCell = ld.Cell
		faultPin = int(ld.Pin)
		fs.queued[faultCell] = true
		fs.buckets[fs.v.Level[faultCell]] = append(fs.buckets[fs.v.Level[faultCell]], faultCell)
	}

	gather := func(ci netlist.CellID) uint64 {
		var ins [8]uint64
		fanin := fs.v.fanin(ci)
		for pin, net := range fanin {
			w := fs.fval(net)
			if ci == faultCell && pin == faultPin {
				w = sa
			}
			ins[pin] = w
		}
		return logicsim.EvalWords(fs.v.CellKind[ci], ins[:len(fanin)])
	}

	for lvl := 1; lvl < len(fs.buckets); lvl++ {
		bucket := fs.buckets[lvl]
		for bi := 0; bi < len(bucket); bi++ {
			ci := bucket[bi]
			fs.queued[ci] = false
			out := fs.v.CellOut[ci]
			var nf uint64
			if cv := fs.v.ConstVal[out]; cv >= 0 {
				nf = fs.good[out]
			} else {
				nf = gather(ci)
			}
			if nf == fs.fval(out) {
				continue
			}
			fs.setFval(out, nf)
			if fs.v.IsSink[out] {
				det |= (nf ^ fs.good[out]) & m
			}
			fs.enqueueLoads(out)
		}
		fs.buckets[lvl] = bucket[:0]
	}
	return det & m
}

// regionChecker holds the region simulator to refDetects on one view:
// every listed fault, every batch.
type regionChecker struct {
	set      *fault.Set
	faults   []int32
	sim, ref *faultSim
}

func newRegionChecker(v *View, set *fault.Set, faults []int32) *regionChecker {
	ctx := context.Background()
	return &regionChecker{set: set, faults: faults, sim: newFaultSim(ctx, v, nil), ref: newFaultSim(ctx, v, nil)}
}

// check compares the two simulators on batch b and returns the first
// fault whose words differ, with both words, or -1.
func (c *regionChecker) check(b *Batch) (int32, uint64, uint64) {
	c.sim.SimGood(b)
	c.ref.SimGood(b)
	for _, r := range c.faults {
		f := c.set.Faults[r]
		if got, want := c.sim.Detects(f, b), c.ref.refDetects(f, b); got != want {
			return r, got, want
		}
	}
	return -1, 0, 0
}

// randomBatch fills b with n random patterns.
func randomBatch(b *Batch, rng *rand.Rand, n int) {
	b.Reset()
	vals := make([]int8, len(b.Words))
	for bit := 0; bit < n; bit++ {
		for i := range vals {
			vals[i] = int8(rng.Intn(2))
		}
		b.SetPattern(bit, vals)
	}
}

// goldenScanCircuit is a paper profile at golden scale after the
// insertion of tpCount test points and scan, with its capture-mode
// constraints.
func goldenScanCircuit(t *testing.T, spec circuitgen.Spec, tpCount int) (*netlist.Netlist, map[netlist.NetID]int8) {
	t.Helper()
	n, err := circuitgen.Generate(spec, stdcell.Default())
	if err != nil {
		t.Fatal(err)
	}
	tps, err := tpi.Insert(n, tpi.Options{Count: tpCount})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(n, tps, scan.Options{MaxChainLength: 100})
	if err != nil {
		t.Fatal(err)
	}
	fixed := sc.CaptureConstraints()
	for k, v := range tps.CaptureConstraints() {
		fixed[k] = v
	}
	return n, fixed
}

// TestRegionSimMatchesPPSFP holds the region simulator to refDetects with
// ==, for every fault class (detected or not) on every batch of a random pattern
// set and of the run's final pattern set, on the committed .bench files and
// the three paper circuits at golden scale.
func TestRegionSimMatchesPPSFP(t *testing.T) {
	t.Parallel()
	type tc struct {
		n     *netlist.Netlist
		fixed map[netlist.NetID]int8
	}
	cases := map[string]tc{}
	for name, n := range trailCircuits(t) {
		cases[name] = tc{n: n}
	}
	if !testing.Short() {
		specs := []circuitgen.Spec{
			circuitgen.S38417Class().Scale(0.05),
			circuitgen.WirelessCtrlClass().Scale(0.05),
			circuitgen.DSPCoreClass().Scale(0.05),
		}
		if raceEnabled {
			specs = specs[:1]
		}
		for _, spec := range specs {
			n, fixed := goldenScanCircuit(t, spec, 4)
			cases[spec.Name+"@0.05"] = tc{n: n, fixed: fixed}
		}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			v, err := NewView(c.n, c.fixed)
			if err != nil {
				t.Fatal(err)
			}
			set := fault.NewUniverse(c.n)
			res, err := RunContext(context.Background(), c.n, set, Options{Constraints: c.fixed})
			if err != nil {
				t.Fatal(err)
			}
			rc := newRegionChecker(v, set, set.Reps())
			b := rc.sim.NewBatch()
			rng := rand.New(rand.NewSource(int64(len(name))))
			for round := 0; round < 4; round++ {
				randomBatch(b, rng, 64)
				if i, got, want := rc.check(b); i >= 0 {
					t.Fatalf("random batch %d, fault %d %+v: region word %#x, reference %#x", round, i, set.Faults[i], got, want)
				}
			}
			for lo := 0; lo < len(res.Patterns); lo += 64 {
				b.Reset()
				for i := lo; i < len(res.Patterns) && i < lo+64; i++ {
					b.SetPattern(i-lo, res.Patterns[i])
				}
				if i, got, want := rc.check(b); i >= 0 {
					t.Fatalf("final batch at %d, fault %d %+v: region word %#x, reference %#x", lo, i, set.Faults[i], got, want)
				}
			}
		})
	}
}

// FuzzRegionSim: on a small random scan circuit, random batches (of any
// fill, including partial ones) must give region words == refDetects words
// for every fault. freeze, when odd, also freezes one net to a constant,
// as capture-mode constraints do, so some gates have a frozen output that
// no fault effect passes.
func FuzzRegionSim(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(40), uint8(64), uint16(0))
	f.Add(int64(7), uint8(2), uint8(0), uint8(12), uint8(5), uint16(31))
	f.Add(int64(99), uint8(6), uint8(5), uint8(90), uint8(33), uint16(515))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nFF, nGates, nPat uint8, freeze uint16) {
		pis := 1 + int(nPI%8)
		ffs := int(nFF % 8)
		gates := 2 + int(nGates%120)
		pats := 1 + int(nPat%64)
		n, fixed := randScanCircuit(t, seed, pis, ffs, gates)
		if freeze%2 == 1 {
			fixed[netlist.NetID(int(freeze/4)%len(n.Nets))] = int8(freeze/2) % 2
		}
		v, err := NewView(n, fixed)
		if err != nil {
			t.Fatal(err)
		}
		set := fault.NewUniverse(n)
		all := make([]int32, set.Total())
		for i := range all {
			all[i] = int32(i)
		}
		rng := rand.New(rand.NewSource(seed))
		rc := newRegionChecker(v, set, all)
		b := rc.sim.NewBatch()
		for round := 0; round < 3; round++ {
			randomBatch(b, rng, pats)
			if i, got, want := rc.check(b); i >= 0 {
				t.Fatalf("round %d, fault %d %+v: region word %#x, reference %#x",
					round, i, set.Faults[i], got, want)
			}
		}
	})
}
