// Command tracestat summarizes an NDJSON span trace written by
// tpitables -trace (or any telemetry NDJSON sink): a per-stage
// wall-time table with one column per swept test-point level, the
// fraction of each run accounted for by its stages, and the stage
// counter totals. Given two traces it compares them instead.
//
// Usage:
//
//	tpitables -circuits s38417c -levels 1 -trace out.ndjson
//	tracestat out.ndjson
//	tracestat < out.ndjson
//	curl -s tpid:8080/v1/runs/r000042/trace | tracestat -
//	tracestat -max-regress 25 -min-dur 100ms old.ndjson out.ndjson
//
// Inputs may be gzip-compressed (tpid's archived traces are): the gzip
// magic is sniffed and decompressed transparently. "-" (or no argument)
// reads stdin.
//
// Two traces (baseline, current) print a Table-2-style per-stage delta
// report instead: baseline vs current duration per stage × TP level,
// the signed percentage change, and any counter drift (patterns, cuts,
// overflows — deterministic, so any drift is a real behavioral change).
// It is the repo's one run comparison: the exit status is 1 when any
// stage regressed beyond -max-regress percent, and 2 when an input is
// unreadable or unbalanced. CI diffs two runs tpid archived (make
// daemon-smoke); tpid itself stores traces and compares nothing:
//
//	curl -s tpid:8080/v1/runs/r000041/trace -o a.gz
//	curl -s tpid:8080/v1/runs/r000042/trace -o b.gz
//	tracestat -normalize -min-dur 100ms a.gz b.gz
//
// Wall-clock comparisons across machines are noisy; -normalize compares
// each stage's share of its run's total time instead of absolute
// durations, which cancels machine speed, and -min-dur suppresses
// sub-threshold stages entirely. A stage that
// dominates its run is share-invariant (slowing it slows the run too),
// so -normalize keeps an absolute backstop: any stage whose wall time
// grew beyond 150% gates regardless of share.
//
// The exit status is non-zero if the trace is unbalanced (a span
// started but never ended, or vice versa) — the signature of a crashed
// or mis-instrumented run — which makes tracestat a cheap CI gate over
// any traced flow. The message names each open span by its stage, level
// and id: on a stuck tpid job's live /events, those are the stages
// still running.
//
//	curl -sN tpid:8080/v1/jobs/$id/events | sed -n '/^event: done/q;s/^data: //p' | tracestat -
//
// Service streams interleave observation events with the spans
// (span_end with id 0: queue depth, cache hits, per-tenant SLO samples
// that tpid folds into /metrics); they are not spans and never count
// against balance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"tpilayout"
	"tpilayout/internal/tracecmp"
)

// backstopPct is the -normalize comparison's absolute backstop: a
// stage whose wall time grew beyond this percentage gates even if its
// share of the run barely moved (a dominant stage is share-invariant).
const backstopPct = 150

// stageRun is the stage name of the span wrapping one full flow run
// (mirrors the internal flow constant; the NDJSON schema is the stable
// contract).
const stageRun = "run"

func main() {
	maxRegress := flag.Float64("max-regress", 25, "with two traces: fail (exit 1) when a stage's duration grew by more than this percentage")
	minDur := flag.Duration("min-dur", 0, "with two traces: noise floor — stages whose baseline duration is below this never gate (e.g. 100ms)")
	normalize := flag.Bool("normalize", false, "with two traces: compare each stage's share of run total instead of absolute durations (machine-speed invariant)")
	flag.Parse()

	switch flag.NArg() {
	case 0, 1:
	case 2:
		os.Exit(diff(flag.Arg(0), flag.Arg(1), tracecmp.Options{
			MaxRegressPct:  *maxRegress,
			HardRegressPct: backstopPct,
			MinDur:         *minDur,
			Normalize:      *normalize,
		}))
	default:
		fmt.Fprintln(os.Stderr, "usage: tracestat [flags] [trace.ndjson | baseline current]")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		name = flag.Arg(0)
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	trace, err := tpilayout.ParseTrace(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	summarize(os.Stdout, name, trace)
	if !trace.Balanced() {
		fmt.Fprintf(os.Stderr, "tracestat: UNBALANCED trace — %d span(s) without a matching start/end: %s\n",
			len(trace.Unbalanced), strings.Join(openSpans(trace), ", "))
		os.Exit(1)
	}
}

// openSpans names each unbalanced span by the stage and level of the
// first event carrying its id: its span_start, or the span_end of an
// end that has no start.
func openSpans(trace *tpilayout.Trace) []string {
	open := map[int64]bool{}
	for _, id := range trace.Unbalanced {
		open[id] = true
	}
	var out []string
	for _, e := range trace.Events {
		if open[e.ID] {
			delete(open, e.ID)
			out = append(out, fmt.Sprintf("%s @ tp %.1f%% (id %d)", e.Stage, e.TPPercent, e.ID))
		}
	}
	return out
}

// diff prints tracecmp's delta report of two traces and returns the
// exit status: 0 clean, 1 a regression beyond threshold, 2 an unreadable
// or unbalanced input.
func diff(basePath, curPath string, opt tracecmp.Options) int {
	base, err := loadSide(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %s: %v\n", basePath, err)
		return 2
	}
	cur, err := loadSide(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %s: %v\n", curPath, err)
		return 2
	}
	rep := tracecmp.Diff(base, cur, opt)
	rep.Write(os.Stdout)
	if len(rep.Regressions) == 0 {
		return 0
	}
	keys := make([]string, len(rep.Regressions))
	for i, r := range rep.Regressions {
		keys[i] = r.Key.String()
	}
	fmt.Fprintf(os.Stderr, "tracestat: %d stage(s) regressed beyond threshold (vs %s): %s\n",
		len(rep.Regressions), basePath, strings.Join(keys, "; "))
	return 1
}

// loadSide reads one NDJSON trace (plain or gzipped); "-" is stdin.
func loadSide(path string) (*tracecmp.Side, error) {
	if path == "-" {
		return tracecmp.LoadTrace(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tracecmp.LoadTrace(f)
}

func summarize(w io.Writer, name string, trace *tpilayout.Trace) {
	levels := trace.Levels()

	// First pass: identify run spans and attribute them to their level.
	runLevel := map[int64]float64{}
	runDur := map[float64]time.Duration{}
	runCount := map[float64]int{}
	var errSpans int
	for _, s := range trace.Spans {
		if s.Err != "" {
			errSpans++
		}
		if s.Stage == stageRun {
			runLevel[s.ID] = s.TPPercent
			runDur[s.TPPercent] += s.Duration
			runCount[s.TPPercent]++
		}
	}

	// Second pass: stage children of run spans, in first-seen order
	// (every run ends its stages in flow order, so the merge is that
	// order), plus counter/gauge totals per level.
	stageDur := map[string]map[float64]time.Duration{}
	var stageOrder []string
	counters := map[string]map[float64]int64{}
	gauges := map[string]map[float64]float64{}
	hists := map[string]map[float64]tpilayout.HistData{}
	for _, s := range trace.Spans {
		tp, ok := runLevel[s.Parent]
		if !ok {
			continue
		}
		for h, d := range s.Hists {
			if hists[h] == nil {
				hists[h] = map[float64]tpilayout.HistData{}
			}
			merged := hists[h][tp]
			merged.Merge(d)
			hists[h][tp] = merged
		}
		if stageDur[s.Stage] == nil {
			stageDur[s.Stage] = map[float64]time.Duration{}
			stageOrder = append(stageOrder, s.Stage)
		}
		stageDur[s.Stage][tp] += s.Duration
		for c, v := range s.Counters {
			if counters[c] == nil {
				counters[c] = map[float64]int64{}
			}
			counters[c][tp] += v
		}
		for g, v := range s.Gauges {
			if gauges[g] == nil {
				gauges[g] = map[float64]float64{}
			}
			gauges[g][tp] = v
		}
	}

	nRuns := len(runLevel)
	fmt.Fprintf(w, "%s: %d events, %d spans (%d runs", name, len(trace.Events), len(trace.Spans), nRuns)
	if errSpans > 0 {
		fmt.Fprintf(w, ", %d with errors", errSpans)
	}
	fmt.Fprint(w, ")\n\n")
	if nRuns == 0 {
		fmt.Fprintln(w, "no run spans — nothing to tabulate")
		return
	}

	const col = 11
	cell := func(s string) string { return fmt.Sprintf("%*s", col, s) }
	header := fmt.Sprintf("%-10s", "stage")
	for _, tp := range levels {
		header += cell(fmt.Sprintf("tp %.1f%%", tp))
	}
	fmt.Fprintln(w, header)

	var stageTotal, runTotal time.Duration
	for _, st := range stageOrder {
		row := fmt.Sprintf("%-10s", st)
		for _, tp := range levels {
			d := stageDur[st][tp]
			stageTotal += d
			row += cell(fmtDur(d))
		}
		fmt.Fprintln(w, row)
	}
	row := fmt.Sprintf("%-10s", "run total")
	for _, tp := range levels {
		runTotal += runDur[tp]
		row += cell(fmtDur(runDur[tp]))
	}
	fmt.Fprintln(w, row)
	row = fmt.Sprintf("%-10s", "other")
	for _, tp := range levels {
		var lv time.Duration
		for _, st := range stageOrder {
			lv += stageDur[st][tp]
		}
		row += cell(fmtDur(runDur[tp] - lv))
	}
	fmt.Fprintln(w, row)
	if runTotal > 0 {
		fmt.Fprintf(w, "\nstages account for %.1f%% of the %s total run wall time\n",
			100*float64(stageTotal)/float64(runTotal), fmtDur(runTotal))
	}

	if len(counters) > 0 || len(gauges) > 0 {
		fmt.Fprintf(w, "\n%-26s", "counter")
		for _, tp := range levels {
			fmt.Fprint(w, cell(fmt.Sprintf("tp %.1f%%", tp)))
		}
		fmt.Fprintln(w)
		for _, c := range sortedKeys(counters) {
			fmt.Fprintf(w, "%-26s", c)
			for _, tp := range levels {
				fmt.Fprint(w, cell(fmt.Sprintf("%d", counters[c][tp])))
			}
			fmt.Fprintln(w)
		}
		for _, g := range sortedKeys(gauges) {
			fmt.Fprintf(w, "%-26s", g)
			for _, tp := range levels {
				fmt.Fprint(w, cell(fmt.Sprintf("%.3g", gauges[g][tp])))
			}
			fmt.Fprintln(w)
		}
	}

	// Distribution table: the per-level percentile estimates of every
	// histogram the trace carries (PODEM latency, FM cut deltas, per-net
	// route times, ...): a count, p50 and p99 row per histogram.
	if len(hists) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-26s", "histogram")
	for _, tp := range levels {
		fmt.Fprint(w, cell(fmt.Sprintf("tp %.1f%%", tp)))
	}
	fmt.Fprintln(w)
	for _, h := range sortedKeys(hists) {
		rows := []struct {
			label string
			q     float64
		}{
			{"count", -1},
			{"p50", 0.5},
			{"p99", 0.99},
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-26s", h+" "+r.label)
			for _, tp := range levels {
				d := hists[h][tp]
				if r.q < 0 {
					fmt.Fprint(w, cell(fmt.Sprintf("%d", d.Count)))
				} else {
					fmt.Fprint(w, cell(fmtQuantile(h, d.Quantile(r.q))))
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// fmtQuantile renders a quantile estimate: duration-valued histograms
// (name ending in _ns) as durations, everything else as a plain number.
func fmtQuantile(name string, q float64) string {
	if strings.HasSuffix(name, "_ns") {
		return fmtDur(time.Duration(q))
	}
	return fmt.Sprintf("%.3g", q)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtDur renders a duration at table-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second || d <= -time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond || d <= -time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%dµs", d/time.Microsecond)
	}
}
