// Command tpitables regenerates the paper's Tables 1, 2 and 3: for each
// selected circuit it builds six layouts (0%–5% test points) through the
// full flow and prints the three tables.
//
// Usage:
//
//	tpitables -circuits s38417c,wctrl1,p26909c -scale 0.25 -table all -workers 0 -timeout 10m
//
// The six layouts of a sweep are built concurrently on up to -workers
// goroutines (0 = GOMAXPROCS, 1 = serial); the tables are byte-identical
// for every worker count.
//
// Sweeps run under supervision: -timeout bounds the wall clock and
// Ctrl-C (SIGINT) cancels cleanly. Either way the sweep degrades rather
// than vanishes — completed levels are printed as partial tables and
// every failed or cancelled level is marked with a "!! ... FAILED" line;
// the exit status is non-zero if any level failed.
//
// At -scale 1 the circuits have their full published sizes; smaller
// scales keep the structure (and the trends) while running much faster.
//
// Sweeps are observable: -trace writes an NDJSON span trace covering
// every level of every circuit (one sweep → run → stage tree per
// circuit — feed it to tracestat), -progress prints live per-stage,
// per-level lines to stderr as the parallel sweep advances, and -pprof
// serves net/http/pprof (live stage counters are on -metrics).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"tpilayout"
	"tpilayout/cmd/internal/obs"
)

func main() {
	circuits := flag.String("circuits", "s38417c,wctrl1,p26909c", "comma-separated circuit list")
	scale := flag.Float64("scale", 1.0, "circuit size scale factor")
	table := flag.String("table", "all", "which table to print: 1, 2, 3, or all")
	levels := flag.String("levels", "0,1,2,3,4,5", "test-point percentages to sweep")
	workers := flag.Int("workers", 0, "sweep concurrency (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "cancel the remaining sweep after this long (0 = no limit); completed levels still print")
	obsFlags := obs.Register()
	logFlags := obs.RegisterLog()
	flag.Parse()

	logger, lerr := logFlags.Logger(os.Stderr)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "tpitables: %v\n", lerr)
		os.Exit(1)
	}
	logger = logger.With("component", "tpitables")
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var pcts []float64
	for _, s := range strings.Split(*levels, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(fmt.Sprintf("bad -levels entry %q", s), err)
		}
		pcts = append(pcts, v)
	}

	switch *table {
	case "1", "2", "3", "all":
	default:
		fatal("bad -table", fmt.Errorf("%q is not one of 1, 2, 3, all", *table))
	}

	tracer, closeTrace, err := obsFlags.Tracer()
	if err != nil {
		fatal("building tracer", err)
	}

	anyFailed := false
	for _, name := range strings.Split(*circuits, ",") {
		name = strings.TrimSpace(name)
		spec, err := tpilayout.SpecByName(name)
		if err != nil {
			fatal("resolving circuit", err)
		}
		if *scale != 1.0 {
			spec = spec.Scale(*scale)
		}
		design, err := tpilayout.Generate(spec, tpilayout.DefaultLibrary())
		if err != nil {
			fatal("generating netlist", err)
		}
		cfg := tpilayout.ExperimentConfig(name)
		cfg.SkipATPG = *table == "2" || *table == "3"
		cfg.Workers = *workers
		cfg.Telemetry = tracer
		start := time.Now()
		results, err := tpilayout.SweepPartial(ctx, design, cfg, pcts)
		if err != nil {
			fatal("running sweep", err)
		}
		rows := tpilayout.CompletedMetrics(results)
		fmt.Printf("== %s (scale %.2f, %d/%d layouts, %v) ==\n\n",
			name, *scale, len(rows), len(results), time.Since(start).Round(time.Second))
		if len(rows) > 0 {
			if *table == "1" || *table == "all" {
				fmt.Println(tpilayout.FormatTable1(rows))
			}
			if *table == "2" || *table == "all" {
				fmt.Println(tpilayout.FormatTable2(rows))
			}
			if *table == "3" || *table == "all" {
				fmt.Println(tpilayout.FormatTable3(rows))
			}
		}
		if failed := tpilayout.FormatSweepFailures(results); failed != "" {
			anyFailed = true
			fmt.Print(failed)
		}
	}
	if err := closeTrace(); err != nil {
		fatal("flushing trace", err)
	}
	if anyFailed {
		os.Exit(1)
	}
}
