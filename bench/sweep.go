package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/flow"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/telemetry"
)

// sweepRunner is the CLI user's path: generate the circuit, run one
// six-level flow.SweepContext on one worker, render the tables.
type sweepRunner struct {
	s       *script
	q       *quality
	blocks  *blockMeter
	sink    *memSink // nil on the untraced pass
	cfg     flow.Config
	designs []*netlist.Netlist
}

func newSweepRunner(s *script, q *quality, blocks *blockMeter, sink *memSink) *sweepRunner {
	cfg := flow.ExperimentConfig(s.Preset)
	cfg.Workers = 1
	cfg.SkipATPG = s.SkipATPG
	return &sweepRunner{s: s, q: q, blocks: blocks, sink: sink, cfg: cfg}
}

func (r *sweepRunner) setUp() error {
	r.designs = r.designs[:0]
	for _, c := range r.s.Circuits {
		d, err := c.design()
		if err != nil {
			return err
		}
		r.designs = append(r.designs, d)
	}
	for _, o := range r.s.Warmup {
		if _, err := r.runOp(-1, o, r.cfg); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (r *sweepRunner) tearDown() { r.designs = nil }

// runOp runs one sweep and renders its tables; index -1 marks a warm-up.
func (r *sweepRunner) runOp(index int, o op, cfg flow.Config) (time.Duration, error) {
	t0 := time.Now()
	rows, err := flow.SweepContext(context.Background(), r.designs[o.Circuit], cfg, o.Levels)
	if err != nil {
		return 0, err
	}
	// tpitables -table 2/3 is what a physical-only sweep prints.
	tables := []string{flow.FormatTable2(rows), flow.FormatTable3(rows)}
	if !cfg.SkipATPG {
		tables = append([]string{flow.FormatTable1(rows)}, tables...)
	}
	d := time.Since(t0)
	if err := checkRows(rows, o.Levels, !cfg.SkipATPG); err != nil {
		return d, err
	}
	return d, r.q.add(index, o.Circuit, o.Levels, rows, !cfg.SkipATPG, tables...)
}

func (r *sweepRunner) measure() ([]float64, []string) {
	var tr *telemetry.Tracer
	if r.sink != nil {
		tr = telemetry.New(r.sink)
	}
	return r.measureWith(tr)
}

func (r *sweepRunner) measureWith(tr *telemetry.Tracer) (opMS []float64, failures []string) {
	cfg := r.cfg
	cfg.Telemetry = tr
	r.blocks.begin()
	for i, o := range r.s.Ops {
		d, err := r.runOp(i, o, cfg)
		r.blocks.opDone()
		if err != nil {
			failures = append(failures, fmt.Sprintf("op %d (%s circuit %d): %v", i, o.Kind, o.Circuit, err))
			continue
		}
		opMS = append(opMS, ms(d))
	}
	return opMS, failures
}

// layerMetrics times the calls no span covers and, on sweep_atpg, runs
// the same sweep the two other ways the flow layer offers.
func (r *sweepRunner) layerMetrics(res *result) {
	res.layer["telemetry.overhead_pct"] = 100 * (midmean(res.opMS)/midmean(res.untracedMS) - 1)
	circuitgenMetrics(res, r.s.Circuits)

	var clone, prewarm []float64
	for _, d := range r.designs {
		t0 := time.Now()
		d.Clone()
		clone = append(clone, ms(time.Since(t0)))
		t0 = time.Now()
		flow.PrewarmBase(d)
		prewarm = append(prewarm, ms(time.Since(t0)))
	}
	res.layer["netlist.clone_ms"] = median(clone)
	// PrewarmBase is a clone plus the cache build.
	res.layer["netlist.prewarm_ms"] = median(prewarm)

	if r.s.Workload != wSweepATPG {
		return
	}
	timed := func(cfg flow.Config) float64 {
		t0 := time.Now()
		if _, err := flow.SweepContext(context.Background(), r.designs[0], cfg, r.s.Levels); err != nil {
			res.failures = append(res.failures, "extra sweep: "+err.Error())
		}
		return time.Since(t0).Seconds()
	}
	full := timed(r.cfg)
	incr, w2 := r.cfg, r.cfg
	incr.SweepMode = flow.SweepIncremental
	w2.Workers = 2
	res.layer["flow.incr_vs_full"] = timed(incr) / full
	res.layer["flow.w2_speedup"] = full / timed(w2)
}

// circuitgenMetrics times generation, WriteBench and ReadBench of every
// circuit of the script (median per circuit).
func circuitgenMetrics(res *result, circuits []circuit) {
	var gen, write, read []float64
	for _, c := range circuits {
		t0 := time.Now()
		d, err := c.generate()
		gen = append(gen, ms(time.Since(t0)))
		if err != nil {
			res.failures = append(res.failures, "generate: "+err.Error())
			return
		}
		var buf bytes.Buffer
		t0 = time.Now()
		err = circuitgen.WriteBench(&buf, d)
		write = append(write, ms(time.Since(t0)))
		if err == nil {
			t0 = time.Now()
			_, err = circuitgen.ReadBench(bytes.NewReader(buf.Bytes()), d.Name, stdcell.Default(), 10000)
			read = append(read, ms(time.Since(t0)))
		}
		if err != nil {
			res.failures = append(res.failures, "bench round trip: "+err.Error())
			return
		}
	}
	res.layer["circuitgen.generate_ms"] = median(gen)
	res.layer["circuitgen.writebench_ms"] = median(write)
	res.layer["circuitgen.readbench_ms"] = median(read)
}
