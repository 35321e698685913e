package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// A script is everything one run does, fixed before the run starts: it is
// a pure function of (workload, seed, seconds, smoke) and never of the
// clock, so two runs of one seed execute the same ops on the same circuits
// and their table-quality metrics compare bit for bit.

// circuit names one generated input: a paper profile, its scale, the
// generator seed, and, when Shuffle is not 0, a permutation of the gate
// order of its .bench text.
type circuit struct {
	Spec    string
	Scale   float64
	Seed    int64
	Shuffle int64
}

func (c circuit) generate() (*netlist.Netlist, error) {
	spec, err := circuitgen.SpecByName(c.Spec)
	if err != nil {
		return nil, err
	}
	if c.Scale != 1 {
		spec = spec.Scale(c.Scale)
	}
	spec.Seed = c.Seed
	return circuitgen.Generate(spec, stdcell.Default())
}

// text renders the circuit as the .bench text tpid receives. A shuffled
// circuit keeps its header (clocks, inputs, outputs) and lists its gates
// and flip-flops in a seeded random order: the same graph with every cell
// and net numbered differently once it is read back.
func (c circuit) text() (string, error) {
	n, err := c.generate()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := circuitgen.WriteBench(&buf, n); err != nil {
		return "", err
	}
	if c.Shuffle == 0 {
		return buf.String(), nil
	}
	var head, gates []string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.Contains(line, " = ") {
			gates = append(gates, line)
		} else {
			head = append(head, line)
		}
	}
	rand.New(rand.NewSource(c.Shuffle)).Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	return strings.Join(append(head, gates...), "\n") + "\n", nil
}

// design builds the netlist the sweeps run on.
func (c circuit) design() (*netlist.Netlist, error) {
	if c.Shuffle == 0 {
		return c.generate()
	}
	text, err := c.text()
	if err != nil {
		return nil, err
	}
	// The clock periods ride in the text's "# CLOCK" lines.
	return circuitgen.ReadBench(strings.NewReader(text), c.Spec, stdcell.Default(), 10000)
}

type opKind string

const (
	opSweep     opKind = "sweep"     // one in-process six-level sweep + table rendering
	opCold      opKind = "cold"      // tpid: first submission of a circuit
	opCoalesced opKind = "coalesced" // tpid: identical POST while the cold run is in flight
	opExtend    opKind = "extend"    // tpid: superset of levels, half of them checkpointed
	opHit       opKind = "hit"       // tpid: resubmission answered from the result cache
)

type op struct {
	Kind    opKind
	Circuit int // index into script.Circuits
	Levels  []float64
}

type script struct {
	Workload string
	Preset   string // flow.ExperimentConfig name
	SkipATPG bool
	Levels   []float64 // the sweep every workload asks for: 0–5 % test points
	First    []float64 // the prefix tpid_mix submits first, then extends
	Circuits []circuit
	Warmup   []op // run before the measured phase; part of setup_s
	Ops      []op
	Block    int // ops per block of the measured phase (blockMeter); divides len(Ops)
}

const (
	wSweepATPG = "sweep_atpg"
	wSweepPhys = "sweep_phys"
	wTpidCold  = "tpid_cold"
	wTpidMix   = "tpid_mix"
)

var workloadNames = []string{wSweepATPG, wSweepPhys, wTpidCold, wTpidMix}

var topLevel = []float64{5}

// hitsPerCycle is how many cache-hit resubmissions follow each tpid_mix
// cycle's three flow-bound submissions. A hit takes 3 ms, or 6 ms when a GC
// cycle runs beside it, which is the case for about two hits in three; the
// middle half of the ops holds both kinds, and it takes some five hundred
// hits in a run before the share of each kind in it stops moving the
// result by more than a few percent.
const hitsPerCycle = 93

// coldBlock is how many tpid_cold jobs make one block.
const coldBlock = 10

// sizing holds one workload's circuit class and how long one unit of its
// script (a sweep, a job, a cycle) takes on the 2-core sandbox the
// benchmark was calibrated on. unitSeconds only converts -seconds into a
// unit count up front; nothing reads the clock to decide what runs.
type sizing struct {
	spec        string
	scale       float64
	smokeScale  float64
	unitSeconds float64
	minUnits    int
	smokeUnits  int
}

var sizings = map[string]sizing{
	wSweepATPG: {spec: "s38417c", scale: 0.05, smokeScale: 0.02, unitSeconds: 2.9, minUnits: 2, smokeUnits: 1},
	wSweepPhys: {spec: "s38417c", scale: 0.5, smokeScale: 0.03, unitSeconds: 1.55, minUnits: 2, smokeUnits: 1},
	wTpidCold:  {spec: "wctrl1", scale: 0.05, smokeScale: 0.03, unitSeconds: 0.133, minUnits: 20, smokeUnits: 6},
	wTpidMix:   {spec: "s38417c", scale: 0.05, smokeScale: 0.02, unitSeconds: 3.6, minUnits: 2, smokeUnits: 1},
}

// makeScript builds the op script of one run.
//
// In the physical workloads the seed picks the circuits: circuit i of a
// run has generator seed paper+1000×seed+i, so seed 0 starts at the
// paper's own circuit and runs of different seeds share none. The cost of
// the physical flow hardly depends on which random logic it gets (±2 %).
//
// ATPG cost does: it is set by each random circuit's population of faults
// PODEM gives up on, and ten generator seeds at one size took 6.4–17.3 s
// per sweep, which no bound below 25 % survives. The ATPG workloads
// therefore keep the paper's generator seed and let the seed permute the
// gate order of the .bench text instead (circuit.Shuffle): the same graph
// with other cell and net numbers, so every tie-break in placement, scan
// ordering, fault ordering and PODEM falls differently (250–264 patterns,
// FE 98.44–98.59 % over eight orders) while the hard faults stay (±2.5 %
// sweep time).
func makeScript(workload string, seed int64, seconds int, smoke bool) (*script, error) {
	sz, ok := sizings[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	units, scale := int(math.Round(float64(seconds)/sz.unitSeconds)), sz.scale
	if units < sz.minUnits {
		units = sz.minUnits
	}
	if smoke {
		units, scale = sz.smokeUnits, sz.smokeScale
	}
	paper, err := circuitgen.SpecByName(sz.spec)
	if err != nil {
		return nil, err
	}
	s := &script{Workload: workload, Preset: sz.spec, Levels: []float64{0, 1, 2, 3, 4, 5}, First: []float64{0, 1, 2}}
	if smoke {
		s.Levels, s.First = []float64{0, 5}, []float64{0}
	}
	atpg := workload == wSweepATPG || workload == wTpidMix
	addCircuit := func(scale float64) int {
		i := len(s.Circuits)
		c := circuit{Spec: sz.spec, Scale: scale, Seed: paper.Seed}
		if offset := 1000*seed + int64(i); atpg {
			c.Shuffle = offset + 1 // never 0: every run reads a permuted text
		} else {
			c.Seed += offset
		}
		s.Circuits = append(s.Circuits, c)
		return i
	}

	switch workload {
	case wSweepATPG, wSweepPhys:
		s.SkipATPG = workload == wSweepPhys
		s.Block = 1
		for u := 0; u < units; u++ {
			s.Ops = append(s.Ops, op{Kind: opSweep, Circuit: addCircuit(scale), Levels: s.Levels})
		}
		// One top-level run of the first circuit touches every stage, TPI
		// included, at a sixth of an op's cost; its row must reappear
		// unchanged in the first measured op (the determinism guard).
		s.Warmup = []op{{Kind: opSweep, Circuit: 0, Levels: topLevel}}

	case wTpidCold:
		s.SkipATPG = true
		s.Block = coldBlock
		if smoke {
			s.Block = units / 2
		}
		units -= units % s.Block
		for u := 0; u < units; u++ {
			s.Ops = append(s.Ops, op{Kind: opCold, Circuit: addCircuit(scale), Levels: s.Levels})
		}
		for u := 0; u < 2; u++ {
			s.Warmup = append(s.Warmup, op{Kind: opCold, Circuit: addCircuit(scale), Levels: s.Levels})
		}

	case wTpidMix:
		s.Block = 3 + hitsPerCycle // a cycle
		hits := 0
		for c := 0; c < units; c++ {
			addCircuit(scale)
			s.Ops = append(s.Ops,
				op{Kind: opCold, Circuit: c, Levels: s.First},
				op{Kind: opCoalesced, Circuit: c, Levels: s.First},
				op{Kind: opExtend, Circuit: c, Levels: s.Levels})
			recent := min(c+1, 4)
			for h := 0; h < hitsPerCycle; h++ {
				s.Ops = append(s.Ops, op{Kind: opHit, Circuit: c - hits%recent, Levels: s.Levels})
				hits++
			}
		}
		// A tiny circuit warms the HTTP, journal and cache paths without
		// paying for a full-size ATPG run.
		w := addCircuit(sz.smokeScale)
		s.Warmup = []op{
			{Kind: opCold, Circuit: w, Levels: topLevel},
			{Kind: opHit, Circuit: w, Levels: topLevel},
		}
	}
	return s, nil
}

// expectedStats is what the script must add to tpid's /v1/stats counters.
type expectedStats struct {
	FlowRuns, LevelsRun, LevelsResumed, CacheHits int64
}

func (s *script) expectedStats() expectedStats {
	var e expectedStats
	for _, o := range s.Ops {
		switch o.Kind {
		case opCold:
			e.FlowRuns++
			e.LevelsRun += int64(len(o.Levels))
		case opExtend:
			e.FlowRuns++
			e.LevelsRun += int64(len(o.Levels) - len(s.First))
			e.LevelsResumed += int64(len(s.First))
		case opHit:
			e.CacheHits++
		}
	}
	return e
}

// levelsRequested is the denominator of service.dedupe_ratio.
func (s *script) levelsRequested() int64 {
	var n int64
	for _, o := range s.Ops {
		n += int64(len(o.Levels))
	}
	return n
}
