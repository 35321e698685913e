// Package obs wires the shared observability surface (-trace,
// -progress, -pprof, -metrics) into the tpilayout command-line tools.
package obs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux
	"os"
	"strings"
	"sync"

	"tpilayout"
)

// Flags holds the observability flag values shared by tpiflow and
// tpitables.
type Flags struct {
	Trace    string
	Progress bool
	Pprof    string
	Metrics  string
}

// Register installs -trace, -progress, -pprof, and -metrics on the
// default FlagSet. Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Trace, "trace", "", "write an NDJSON span trace to this file (read it back with tracestat)")
	flag.BoolVar(&f.Progress, "progress", false, "print live per-stage progress lines to stderr")
	flag.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&f.Metrics, "metrics", "", "serve a Prometheus /metrics exposition on this address (shares the -pprof listener when the addresses match)")
	return f
}

// LogFlags holds the structured-logging flag values shared by tpid,
// tpiflow, and tpitables.
type LogFlags struct {
	Format string
	Level  string
}

// RegisterLog installs -log-format and -log-level on the default
// FlagSet. Call before flag.Parse.
func RegisterLog() *LogFlags {
	f := &LogFlags{}
	flag.StringVar(&f.Format, "log-format", "text", "structured log format: text or json")
	flag.StringVar(&f.Level, "log-level", "info", "minimum log level: debug, info, warn, or error")
	return f
}

// Logger builds the structured logger the flags select, writing to w
// and forwarding records to the given sinks (e.g. a flight recorder).
func (f *LogFlags) Logger(w io.Writer, sinks ...tpilayout.TraceSink) (*tpilayout.Logger, error) {
	return tpilayout.NewLogger(w, f.Format, f.Level, sinks...)
}

// The process-wide /metrics surface. One PromSink serves every Tracer
// built in this process (repeated Tracer calls, flag re-parsing in
// tests), because http.Handle panics on duplicate registration.
var (
	promOnce sync.Once
	promSink *tpilayout.PromSink
)

// metricsSink returns the process singleton PromSink, mounting it on
// the default mux's /metrics on first use.
func metricsSink() *tpilayout.PromSink {
	promOnce.Do(func() {
		promSink = tpilayout.NewPromSink("tpilayout")
		http.Handle("/metrics", promSink)
	})
	return promSink
}

// Listener describes one background HTTP server the flags require: the
// address to bind and the observability surfaces it serves there. Every
// surface lives on the default mux, so two flags naming the same address
// share a single listener instead of fighting over the port.
type Listener struct {
	Addr     string
	Surfaces []string // "pprof", "metrics"
}

// listenPlan resolves the -pprof and -metrics addresses into the
// distinct listeners to start: a matching pair collapses into one shared
// listener serving both surfaces, mismatched addresses get one listener
// each, and empty flags contribute nothing.
func listenPlan(pprofAddr, metricsAddr string) []Listener {
	var plan []Listener
	if pprofAddr != "" {
		l := Listener{Addr: pprofAddr, Surfaces: []string{"pprof"}}
		if metricsAddr == pprofAddr {
			l.Surfaces = append(l.Surfaces, "metrics")
		}
		plan = append(plan, l)
	}
	if metricsAddr != "" && metricsAddr != pprofAddr {
		plan = append(plan, Listener{Addr: metricsAddr, Surfaces: []string{"metrics"}})
	}
	return plan
}

// serve starts a best-effort background HTTP server on the default mux:
// the run proceeds even if the port is taken, it just reports why the
// surface is unavailable.
func serve(addr, what string) {
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s server on %s: %v\n", what, addr, err)
		}
	}()
}

// Tracer builds the tracer the flags select. It returns a nil tracer —
// which the flow treats as zero-cost disabled telemetry — when no flag
// is set. flush flushes and closes the trace file; call it after the
// run, before reading the file.
func (f *Flags) Tracer() (tr *tpilayout.Tracer, flush func() error, err error) {
	var sinks []tpilayout.TraceSink
	flush = func() error { return nil }
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, nil, fmt.Errorf("-trace: %w", err)
		}
		sink := tpilayout.NewNDJSONSink(file)
		sinks = append(sinks, sink)
		flush = sink.Close // closes the file too
	}
	if f.Progress {
		sinks = append(sinks, tpilayout.NewProgressSink(os.Stderr))
	}
	if f.Pprof != "" {
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof\n", f.Pprof)
	}
	if f.Metrics != "" {
		sinks = append(sinks, metricsSink())
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", f.Metrics)
	}
	for _, l := range listenPlan(f.Pprof, f.Metrics) {
		serve(l.Addr, strings.Join(l.Surfaces, "+"))
	}
	if len(sinks) == 0 {
		return nil, flush, nil
	}
	return tpilayout.NewTracer(sinks...), flush, nil
}
