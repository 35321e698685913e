// Command tracediff compares two flow recordings — NDJSON span traces
// (tpiflow -trace ..., plain or gzipped) — and prints a Table-2-style
// per-stage delta report: baseline vs current duration per stage × TP
// level, the signed percentage change, and any counter drift (patterns,
// cuts, overflows — deterministic, so any drift is a real behavioral
// change).
//
// It is the repo's cross-run regression sentinel: the exit status is 1
// when any stage regressed beyond -max-regress percent; CI diffs two
// fresh traces of one run (make trace-diff) to keep it exercised. The
// same align/compare core (internal/tracecmp) runs inside tpid, diffing
// every retired run against its archived baseline.
//
// Usage:
//
//	tracediff [flags] baseline current
//
//	tpiflow -circuit s38417c -trace new.ndjson
//	tracediff -max-regress 25 -min-dur 100ms old.ndjson new.ndjson
//	curl -s tpid:8080/v1/runs/r42/trace | tracediff old.ndjson -
//
// Wall-clock comparisons across machines are noisy; -normalize compares
// each stage's share of its run's total time instead of absolute
// durations, which cancels machine speed, and -min-dur suppresses
// sub-threshold stages entirely. A stage that dominates its run is
// share-invariant (slowing it slows the run too), so -normalize keeps
// an absolute backstop: -hard-regress gates any stage whose wall time
// grew beyond that percentage regardless of share. Each input —
// including "-" for stdin — is parsed as an NDJSON trace, gunzipped
// transparently when it starts with the gzip magic.
//
// Exit status: 0 clean, 1 regression beyond threshold, 2 usage or
// parse failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tpilayout/internal/tracecmp"
)

func main() {
	maxRegress := flag.Float64("max-regress", 25, "fail (exit 1) when a stage's duration grew by more than this percentage")
	minDur := flag.Duration("min-dur", 0, "noise floor: stages whose baseline duration is below this never gate (e.g. 100ms)")
	normalize := flag.Bool("normalize", false, "compare each stage's share of run total instead of absolute durations (machine-speed invariant)")
	hardRegress := flag.Float64("hard-regress", 150, "with -normalize: absolute-time backstop — a stage whose wall time grew beyond this percentage gates even if its share of the run barely moved (dominant stages are share-invariant); 0 disables")
	flag.Parse()

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracediff [flags] baseline current")
		flag.PrintDefaults()
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracediff: %s: %v\n", flag.Arg(0), err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracediff: %s: %v\n", flag.Arg(1), err)
		os.Exit(2)
	}

	rep := tracecmp.Diff(base, cur, tracecmp.Options{
		MaxRegressPct:  *maxRegress,
		HardRegressPct: *hardRegress,
		MinDur:         *minDur,
		Normalize:      *normalize,
	})
	rep.Write(os.Stdout)
	if len(rep.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "tracediff: %d stage(s) regressed beyond threshold (vs %s)\n",
			len(rep.Regressions), flag.Arg(0))
		os.Exit(1)
	}
}

// load reads one NDJSON trace (plain or gzipped); "-" is stdin.
func load(path string) (*tracecmp.Side, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return tracecmp.LoadTrace(r)
}
