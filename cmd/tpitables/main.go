// Command tpitables regenerates the paper's Tables 1, 2 and 3: for each
// selected circuit it builds six layouts (0%–5% test points) through the
// full flow and prints the three tables.
//
// Usage:
//
//	tpitables -circuits s38417c,wctrl1,p26909c -scale 0.25 -table all -workers 0 -timeout 10m
//	tpitables -circuits s38417c -scale 0.25 -levels 1      # one layout
//
// -table takes a comma list of 1, 2, 3 or all (e.g. 2,3); ATPG runs only
// when Table 1 is selected, so -table 2,3 is the physical flow alone.
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
// serves net/http/pprof. Live /metrics scrapes are tpid's surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"tpilayout"
)

func main() {
	circuits := flag.String("circuits", "s38417c,wctrl1,p26909c", "comma-separated circuit list")
	scale := flag.Float64("scale", 1.0, "circuit size scale factor")
	table := flag.String("table", "all", "tables to print: a comma list of 1, 2, 3, or all (ATPG runs only for Table 1)")
	levels := flag.String("levels", "0,1,2,3,4,5", "test-point percentages to sweep")
	workers := flag.Int("workers", 0, "sweep concurrency (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "cancel the remaining sweep after this long (0 = no limit); completed levels still print")
	traceFile := flag.String("trace", "", "write an NDJSON span trace to this file (read it back with tracestat)")
	progress := flag.Bool("progress", false, "print live per-stage progress lines to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("tpitables: ")
	fatal := func(msg string, err error) { log.Fatalf("%s: %v", msg, err) }

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

	show, err := parseTables(*table)
	if err != nil {
		fatal("bad -table", err)
	}
	if *scale <= 0 {
		log.Fatalf("bad -scale %g: must be positive", *scale)
	}
	formats := [...]func([]tpilayout.Metrics) string{1: tpilayout.FormatTable1, 2: tpilayout.FormatTable2, 3: tpilayout.FormatTable3}

	// Every name resolves before the first sweep: a typo in the last
	// circuit must not cost the sweeps of the ones before it.
	names := strings.Split(*circuits, ",")
	specs := make([]tpilayout.Spec, len(names))
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		spec, err := tpilayout.SpecByName(names[i])
		if err != nil {
			fatal("resolving circuit", err)
		}
		if *scale != 1.0 {
			spec = spec.Scale(*scale)
		}
		specs[i] = spec
	}

	var sinks []tpilayout.TraceSink
	closeTrace := func() error { return nil }
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal("-trace", err)
		}
		sink := tpilayout.NewNDJSONSink(f)
		sinks = append(sinks, sink)
		closeTrace = sink.Close // closes the file too
	}
	if *progress {
		sinks = append(sinks, tpilayout.NewProgressSink(os.Stderr))
	}
	var tracer *tpilayout.Tracer // nil: telemetry disabled at zero cost
	if len(sinks) > 0 {
		tracer = tpilayout.NewTracer(sinks...)
	}
	if *pprofAddr != "" {
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof\n", *pprofAddr)
		go func() { log.Printf("-pprof: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}

	anyFailed := false
	for i, name := range names {
		design, err := tpilayout.Generate(specs[i], tpilayout.DefaultLibrary())
		if err != nil {
			fatal("generating netlist", err)
		}
		cfg := tpilayout.ExperimentConfig(specs[i].Name)
		cfg.SkipATPG = !show[1]
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
			for i, format := range formats {
				if show[i] {
					fmt.Println(format(rows))
				}
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

// parseTables reads -table's comma list into the set of table numbers
// to print (index 0 is unused).
func parseTables(s string) ([4]bool, error) {
	var show [4]bool
	for _, t := range strings.Split(s, ",") {
		switch t = strings.TrimSpace(t); t {
		case "1", "2", "3":
			show[t[0]-'0'] = true
		case "all":
			show[1], show[2], show[3] = true, true, true
		default:
			return show, fmt.Errorf("%q is not a comma list of 1, 2, 3, all", s)
		}
	}
	return show, nil
}
