// Command tpiflow runs the paper's complete tool flow (Figure 2) once for
// one circuit and test-point level, and prints the resulting test-data,
// area, and timing metrics.
//
// Usage:
//
//	tpiflow -circuit s38417c -scale 0.25 -tp 1 -workers 4 -timeout 2m
//
// -workers bounds the fault-simulation shard count (0 = GOMAXPROCS,
// 1 = serial); the printed metrics are identical for every value.
//
// The run is supervised: -timeout bounds the wall clock and Ctrl-C
// (SIGINT) cancels cleanly — either lands within one work unit of the
// flow, which exits with the stage that was cut short. -atpg-budget
// instead bounds only the ATPG effort: an expiring budget degrades the
// run (remaining faults are marked aborted, metrics flagged truncated)
// rather than failing it.
//
// The run is observable: -trace writes an NDJSON span trace (one timed
// span per flow stage — feed it to tracestat), -progress prints live
// stage lines to stderr, and -pprof serves net/http/pprof (live stage
// counters are on -metrics). All are off by default and cost nothing
// when off.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"tpilayout"
	"tpilayout/cmd/internal/obs"
)

func main() {
	circuit := flag.String("circuit", "s38417c", "circuit profile: s38417c, wctrl1, or p26909c")
	scale := flag.Float64("scale", 1.0, "circuit size scale factor (1.0 = paper size)")
	tp := flag.Float64("tp", 1.0, "test points as a percentage of flip-flops")
	skipATPG := flag.Bool("skip-atpg", false, "run only the physical flow (no pattern generation)")
	workers := flag.Int("workers", 0, "fault-simulation shard count (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no limit)")
	atpgBudget := flag.Duration("atpg-budget", 0, "ATPG effort budget; expiry truncates the run instead of failing it (0 = no limit)")
	obsFlags := obs.Register()
	logFlags := obs.RegisterLog()
	flag.Parse()

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpiflow: %v\n", err)
		os.Exit(1)
	}
	logger = logger.With("component", "tpiflow")
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

	spec, err := tpilayout.SpecByName(*circuit)
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
	cfg := tpilayout.ExperimentConfig(*circuit)
	cfg.TPPercent = *tp
	cfg.SkipATPG = *skipATPG
	cfg.Workers = *workers
	if *atpgBudget > 0 {
		cfg.Deadline = time.Now().Add(*atpgBudget)
	}
	tracer, closeTrace, err := obsFlags.Tracer()
	if err != nil {
		fatal("building tracer", err)
	}
	cfg.Telemetry = tracer
	res, err := tpilayout.RunContext(ctx, design, cfg)
	if terr := closeTrace(); terr != nil {
		fatal("flushing trace", terr)
	}
	if err != nil {
		fatal("running flow", err)
	}

	m := res.Metrics
	fmt.Printf("circuit %s (scale %.2f): %d cells, %d flip-flops, %d test points\n",
		m.Circuit, *scale, m.Cells, m.NumFF, m.NumTP)
	fmt.Printf("scan: %d chains, l_max %d\n", m.Chains, m.LMax)
	if !*skipATPG {
		fmt.Printf("test: %d faults, FC %.2f%%, FE %.2f%%, %d patterns, TDV %d bits, TAT %d cycles\n",
			m.Faults, m.FC, m.FE, m.Patterns, m.TDV, m.TAT)
		if m.Truncated {
			fmt.Println("note: ATPG budget expired — remaining faults aborted, FC/FE reflect the achieved detections")
		}
	}
	fmt.Printf("area: %d rows x %.1f um, core %.0f um2 (filler %.2f%%), chip %.0f um2, wires %.0f um\n",
		m.Rows, m.LRows/float64(m.Rows), m.CoreArea, m.FillerPct, m.ChipArea, m.LWires)
	for _, t := range m.Timing {
		fmt.Printf("timing %-8s: Tcp %.0f ps (Fmax %.1f MHz), %d TPs on path; "+
			"wires %.0f + intrinsic %.0f + load-dep %.0f + setup %.0f + skew %.0f\n",
			t.Domain, t.TcpPS, t.FmaxMHz, t.TPOnPath,
			t.TWires, t.TIntr, t.TLoadDep, t.TSetup, t.TSkew)
	}
	if m.SlowNodes > 0 {
		fmt.Printf("note: %d slow nodes (extrapolated delays)\n", m.SlowNodes)
	}
	os.Exit(0)
}
