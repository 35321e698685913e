// Command bench is the repository's benchmark: four workloads, each a
// fixed op script run on one busy thread, reporting what a user of the
// flow or of tpid sees (untraced pass) and where the time went layer by
// layer (traced pass). See README.md for the workloads, the metrics and
// how they connect.
//
//	bash bench/run.sh --workload sweep_atpg --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh            # all four workloads, untraced
//	bash bench/run.sh -trace 1   # all four, traced: per-layer metrics + NDJSON traces
//	bash bench/run.sh -aa 5      # two interleaved sets of 5 runs of this build
//
// One workload runs per process; without -workload the program re-executes
// itself once per workload. The last line of a workload's standard output
// is its result as one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupReps is how often a run sets up from scratch before it measures;
// setup_s is the median.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	smoke    bool
	outDir   string
}

func (o options) traceFlag() int {
	if o.traced {
		return 1
	}
	return 0
}

// runner is one workload's program under test.
type runner interface {
	// setUp builds the inputs from the script, starts the program and
	// runs the warm-up ops.
	setUp() error
	// measure runs the script's ops in order and returns each op's
	// latency and one line per failed op.
	measure() (opMS []float64, failures []string)
	// layerMetrics adds what only this kind of workload can see.
	layerMetrics(res *result)
	tearDown()
}

// result is everything one run measured.
type result struct {
	opt        options
	script     *script
	setupS     []float64
	opMS       []float64
	failures   []string
	begin, end procSnapshot // around the measured phase
	blocks     *blockMeter  // the measured phase, block by block
	quality    *quality
	untracedMS []float64          // traced sweeps only: the same ops with telemetry off
	layer      map[string]float64 // traced pass only
}

func (r *result) ops() float64   { return float64(len(r.opMS)) }
func (r *result) wallS() float64 { return r.end.at.Sub(r.begin.at).Seconds() }
func (r *result) cpuS() float64  { return r.end.cpuS - r.begin.cpuS }

// failedOps counts one per failure line (a failed op has exactly one; a
// run-level check that fails adds its own), capped at the ops attempted.
func (r *result) failedOps() int { return min(len(r.failures), len(r.script.Ops)) }

func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":       median(r.setupS),
		"op_iqm_ms":     midmean(r.opMS),
		"ops_per_s":     r.blocks.opsPerS(),
		"cpu_s_per_op":  r.blocks.cpuSPerOp(),
		"peak_rss_mb":   peakRSSMB(),
		"chip_area_mm2": r.quality.chipAreaMM2(),
		"wirelength_mm": r.quality.wirelengthMM(),
		"tcp_ns":        r.quality.tcpNS(),
	}
}

func main() {
	var opt options
	var seed string
	var trace, aa int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: sweep_atpg, sweep_phys, tpid_cold or tpid_mix (default: all four, one child process each)")
	flag.StringVar(&seed, "seed", "0", "script seed: 0 generates the paper's circuits, any other value shifts every generator seed")
	flag.IntVar(&opt.seconds, "seconds", 20, "sizes the op script (about this many seconds of measured ops on the calibration sandbox)")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass: per-layer metrics and out/trace-<workload>.ndjson; 0 = end-to-end metrics with telemetry off")
	flag.IntVar(&aa, "aa", 0, "run two interleaved sets of N full untraced runs of this build and compare them against the bounds")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny scripts (seconds of work in total) for tests")
	flag.StringVar(&opt.outDir, "out", "out", "directory for result JSON, traces and the daemons' data dirs")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	var err error
	if opt.seed, err = parseSeed(seed); err != nil {
		fatalf("-seed: %v", err)
	}
	if opt.seconds < 1 || trace < 0 || trace > 1 || aa < 0 {
		fatalf("-seconds must be at least 1, -trace 0 or 1, -aa not negative")
	}
	opt.traced = trace == 1
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	switch {
	case aa > 0:
		os.Exit(runAA(opt, aa))
	case opt.workload == "":
		ok := true
		for _, w := range workloadNames {
			o := opt
			o.workload = w
			out, err := runChild(o, os.Stdout)
			ok = ok && err == nil && out.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		res, err := runWorkload(opt)
		if err != nil {
			fatalf("%v", err)
		}
		// A run that printed its result exits 0; "correct" carries the verdict.
		report(os.Stdout, res)
	}
}

// parseSeed accepts any 64-bit value, signed or unsigned.
func parseSeed(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	u, err := strconv.ParseUint(s, 10, 64)
	return int64(u), err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload runs one workload in this process.
func runWorkload(opt options) (*result, error) {
	s, err := makeScript(opt.workload, opt.seed, opt.seconds, opt.smoke)
	if err != nil {
		return nil, err
	}
	res := &result{opt: opt, script: s, quality: newQuality(), blocks: &blockMeter{size: s.Block}}
	var sink *memSink
	if opt.traced {
		sink = &memSink{}
	}
	var run runner
	switch opt.workload {
	case wSweepATPG, wSweepPhys:
		run = newSweepRunner(s, res.quality, res.blocks, sink)
	default:
		run = newTpidRunner(s, res.quality, res.blocks, sink, filepath.Join(opt.outDir, fmt.Sprintf("data-%s-%d", opt.workload, os.Getpid())))
	}

	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			run.tearDown()
		}
		t0 := time.Now()
		if err := run.setUp(); err != nil {
			run.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", opt.workload, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	if sw, ok := run.(*sweepRunner); ok && opt.traced {
		// The same ops with telemetry off first: the difference is the
		// telemetry tax, and the traced rows must equal the untraced ones.
		res.untracedMS, res.failures = sw.measureWith(nil)
	}
	mark := sink.len()
	res.begin = takeProcSnapshot()
	opMS, failures := run.measure()
	res.end = takeProcSnapshot()
	res.opMS, res.failures = opMS, append(res.failures, failures...)

	if opt.traced {
		res.layer = map[string]float64{}
		events := sink.since(mark)
		if err := writeTrace(filepath.Join(opt.outDir, "trace-"+opt.workload+".ndjson"), events); err != nil {
			res.failures = append(res.failures, "writing trace: "+err.Error())
		}
		spanMetrics(res, events)
		procMetrics(res)
		run.layerMetrics(res)
	}
	run.tearDown()
	return res, nil
}

// outcome is the last line of a workload's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable summary, then the result line, and
// leaves a copy of that line in the output directory.
func report(w io.Writer, res *result) outcome {
	opt, s := res.opt, res.script
	defs, values := endToEnd, res.endToEnd()
	if opt.traced {
		defs, values = perLayer, res.layer
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  traced %v  ops %d (+%d warm-up)  circuits %d × %s@%g\n",
		s.Workload, opt.seed, opt.seconds, opt.traced, len(s.Ops), len(s.Warmup), len(s.Circuits), s.Circuits[0].Spec, s.Circuits[0].Scale)
	fmt.Fprintf(w, "machine: nproc %d  GOMAXPROCS %d  %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "measured phase: %.3f s wall, %.3f s cpu (cpu/wall %.2f), %d ops, %d failed; set-up ×%d: %.3f s\n",
		res.wallS(), res.cpuS(), res.cpuS()/res.wallS(), len(res.opMS), res.failedOps(), len(res.setupS), median(res.setupS))
	fmt.Fprintf(w, "op latency ms: min %.3f  p25 %.3f  p50 %.3f  p75 %.3f  max %.3f  (n=%d); %d blocks of %d ops; whole phase %.4g ops/s, %.4g cpu-s/op\n",
		percentile(res.opMS, 0), percentile(res.opMS, 25), median(res.opMS), percentile(res.opMS, 75), percentile(res.opMS, 100), len(res.opMS),
		len(res.blocks.wallS), s.Block, res.ops()/res.wallS(), res.cpuS()/res.ops())
	fmt.Fprintf(w, "tables_sha256 %s  rows %d\n", res.quality.tablesSHA256(), res.quality.rows)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	out := outcome{Correct: len(res.failures) == 0, Attempted: len(s.Ops), Failed: res.failedOps(), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) { // only when every op failed
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", d.Name, v, d.Unit, sampleCount(res, d.Name))
	}
	line, _ := json.Marshal(out) // finite floats and strings only: cannot fail
	line = append(line, '\n')
	name := fmt.Sprintf("result-%s-trace%d.json", s.Workload, opt.traceFlag())
	if err := os.WriteFile(filepath.Join(opt.outDir, name), line, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	w.Write(line)
	return out
}

// sampleCount is how many samples stand behind a printed metric.
func sampleCount(res *result, name string) int {
	switch name {
	case "setup_s":
		return len(res.setupS)
	case "ops_per_s", "cpu_s_per_op":
		return len(res.blocks.wallS)
	case "chip_area_mm2", "wirelength_mm", "tcp_ns":
		return res.quality.rows
	case "atpg.fe_pct", "atpg.tdv_kbit":
		return res.quality.atpgRows
	}
	return len(res.opMS)
}

// runChild runs one workload in a child process, copies its output to w
// and parses its result line.
func runChild(opt options, w io.Writer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", opt.workload, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds), "-out", opt.outDir, "-trace", strconv.Itoa(opt.traceFlag())}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	w.Write(stdout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	return parseOutcome(stdout)
}

// parseOutcome decodes the last line of a workload's output.
func parseOutcome(stdout []byte) (*outcome, error) {
	line := bytes.TrimRight(stdout, "\n")
	line = line[bytes.LastIndexByte(line, '\n')+1:]
	var out outcome
	if err := json.Unmarshal(line, &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &out, nil
}
