package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tpilayout"
)

// synthetic trace: one run at tp 0 and one at tp 2, each with an atpg
// stage carrying a counter and two histograms (a duration-valued one
// and a dimensionless one). Bucket 20 is (0.52,1.05]ms, bucket 27 is
// (67,134]ms — fixed data pins the quantile estimates.
const traceText = `{"ev":"span_start","id":1,"stage":"run","tp":0,"t":"2026-08-06T12:00:00Z"}
{"ev":"span_start","id":2,"parent":1,"stage":"atpg","tp":0,"t":"2026-08-06T12:00:00Z"}
{"ev":"span_end","id":2,"parent":1,"stage":"atpg","tp":0,"t":"2026-08-06T12:00:01Z","dur_ns":1000000000,"counters":{"atpg.patterns":412},"hists":{"atpg.podem_ns":{"n":4,"s":200000,"b":{"20":3,"27":1}},"atpg.podem_bt_depth":{"n":4,"s":16,"b":{"2":4}}}}
{"ev":"span_end","id":1,"stage":"run","tp":0,"t":"2026-08-06T12:00:02Z","dur_ns":2000000000}
{"ev":"span_start","id":3,"stage":"run","tp":2,"t":"2026-08-06T12:00:00Z"}
{"ev":"span_start","id":4,"parent":3,"stage":"atpg","tp":2,"t":"2026-08-06T12:00:00Z"}
{"ev":"span_end","id":4,"parent":3,"stage":"atpg","tp":2,"t":"2026-08-06T12:00:01Z","dur_ns":1500000000,"counters":{"atpg.patterns":390},"hists":{"atpg.podem_ns":{"n":4,"s":400000,"b":{"20":2,"27":2}}}}
{"ev":"span_end","id":3,"stage":"run","tp":2,"t":"2026-08-06T12:00:02Z","dur_ns":2500000000}
`

func parseFixture(t *testing.T) *tpilayout.Trace {
	t.Helper()
	trace, err := tpilayout.ParseTrace(strings.NewReader(traceText))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestSummarizePercentileTable pins the -p50/-p99 distribution table
// format exactly: histogram rows after the counter table, one count/
// p50/p99 row per histogram, duration formatting for *_ns names.
func TestSummarizePercentileTable(t *testing.T) {
	var buf bytes.Buffer
	summarize(&buf, "fixture", parseFixture(t), true, true, true)
	out := buf.String()

	want := `
histogram                     tp 0.0%    tp 2.0%
atpg.podem_bt_depth count           4          0
atpg.podem_bt_depth p50             3          0
atpg.podem_bt_depth p99          3.98          0
atpg.podem_ns count                 4          4
atpg.podem_ns p50               873µs      1.0ms
atpg.podem_ns p99             131.5ms    132.9ms
`
	if !strings.Contains(out, want) {
		t.Errorf("distribution table not pinned.\nwant section:\n%s\ngot output:\n%s", want, out)
	}
	// Counters still present, before the histogram table.
	ci := strings.Index(out, "atpg.patterns")
	hi := strings.Index(out, "histogram")
	if ci < 0 || hi < 0 || ci > hi {
		t.Errorf("counter table missing or misplaced:\n%s", out)
	}
}

// TestSummarizePercentileFlags: -p50=false/-p99=false drop their rows;
// both off drops the whole section.
func TestSummarizePercentileFlags(t *testing.T) {
	var buf bytes.Buffer
	summarize(&buf, "fixture", parseFixture(t), false, false, true)
	out := buf.String()
	if strings.Contains(out, "p50") || !strings.Contains(out, "atpg.podem_ns p99") {
		t.Errorf("-p50=false output wrong:\n%s", out)
	}
	if strings.Contains(out, "atpg.patterns") {
		t.Errorf("-counters=false leaked counters:\n%s", out)
	}

	buf.Reset()
	summarize(&buf, "fixture", parseFixture(t), true, false, false)
	if strings.Contains(buf.String(), "histogram") {
		t.Errorf("both percentile flags off should drop the section:\n%s", buf.String())
	}
}

// serviceText is a tpid-style stream: spans interleaved with
// observation events (span_end id 0, the service's metric flushes) and
// structured log records, all carrying correlation attrs.
const serviceText = `{"ev":"span_start","id":1,"stage":"run","tp":0,"t":"2026-08-06T12:00:00Z","attrs":{"run_id":"r000001-aa","job_id":"j1","tenant":"acme"}}
{"ev":"log","id":0,"stage":"service","tp":0,"t":"2026-08-06T12:00:00Z","level":"INFO","msg":"job accepted","attrs":{"job_id":"j1","run_id":"r000001-aa","tenant":"acme"}}
{"ev":"span_end","id":0,"stage":"service","tp":-1,"t":"2026-08-06T12:00:01Z","counters":{"service.cache_hits":2},"gauges":{"service.queue_depth":3}}
{"ev":"span_end","id":0,"stage":"service","tp":-1,"t":"2026-08-06T12:00:01Z","counters":{"service.jobs_done":1},"attrs":{"tenant":"acme"}}
{"ev":"span_end","id":0,"stage":"service","tp":-1,"t":"2026-08-06T12:00:02Z","counters":{"service.cache_hits":1},"gauges":{"service.queue_depth":1}}
{"ev":"log","id":0,"stage":"service","tp":0,"t":"2026-08-06T12:00:02Z","level":"WARN","msg":"level retry","attrs":{"job_id":"j1","run_id":"r000001-aa"}}
{"ev":"span_end","id":1,"stage":"run","tp":0,"t":"2026-08-06T12:00:03Z","dur_ns":3000000000,"attrs":{"run_id":"r000001-aa","job_id":"j1","tenant":"acme"}}
`

// TestServiceAndLogSections pins the service/log summary sections and
// confirms observation + log records never unbalance a trace.
func TestServiceAndLogSections(t *testing.T) {
	trace, err := tpilayout.ParseTrace(strings.NewReader(serviceText))
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Balanced() {
		t.Fatalf("observation/log records must not count against balance: unbalanced ids %v", trace.Unbalanced)
	}
	if len(trace.Observations) != 3 || len(trace.Logs) != 2 {
		t.Fatalf("got %d observations, %d logs; want 3, 2", len(trace.Observations), len(trace.Logs))
	}

	var buf bytes.Buffer
	summarizeService(&buf, trace)
	out := buf.String()
	for _, want := range []string{
		"service: 3 observation event(s)",
		"service.cache_hits", "3", // summed across flushes
		"service.jobs_done{tenant=acme}", // tenant-split family
		"service.queue_depth", "1",       // gauge: last value wins
	} {
		if !strings.Contains(out, want) {
			t.Errorf("service section missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	summarizeLogs(&buf, trace)
	out = buf.String()
	for _, want := range []string{
		"logs: 2 record(s) info=1 warn=1",
		"  WARN level retry job_id=j1 run_id=r000001-aa",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log section missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "job accepted") {
		t.Errorf("INFO records should not be reprinted:\n%s", out)
	}
}

// TestDiffExitStatus: with two traces tracestat prints the delta report
// and exits 0 on an identical pair, 1 when a stage slowed (naming the
// stage and level on stderr), and 2 on an unreadable or unbalanced input.
func TestDiffExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tracestat")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tracestat: %v\n%s", err, out)
	}
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.ndjson", traceText)
	slowed := write("slowed.ndjson", strings.Replace(traceText, `"dur_ns":1500000000`, `"dur_ns":4500000000`, 1))
	lines := strings.SplitAfter(traceText, "\n")
	unbalanced := write("unbalanced.ndjson", strings.Join(lines[:2], ""))

	for _, tc := range []struct {
		name, cur  string
		code       int
		wantStderr string
	}{
		{"identical", base, 0, ""},
		{"slowed", slowed, 1, "atpg @ tp 2.0%"},
		{"unreadable", filepath.Join(dir, "missing.ndjson"), 2, "missing.ndjson"},
		{"unbalanced", unbalanced, 2, "unbalanced"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, base, tc.cur)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%s: %v", tc.name, err)
			}
			code = ee.ExitCode()
		}
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr does not contain %q:\n%s", tc.name, tc.wantStderr, stderr.String())
		}
		if tc.code < 2 && !strings.Contains(stdout.String(), "cells compared") {
			t.Errorf("%s: no delta report on stdout:\n%s", tc.name, stdout.String())
		}
	}
}

// TestFlightDumpTolerated: a ring dump whose oldest span_start rotated
// away parses, summarizes, and reports the orphan end as unbalanced —
// the -flight flag in main downgrades that to a note.
func TestFlightDumpTolerated(t *testing.T) {
	dump := `{"ev":"span_end","id":7,"stage":"atpg","tp":1,"t":"2026-08-06T12:00:01Z","dur_ns":1000000}
{"ev":"log","id":0,"stage":"service","tp":0,"t":"2026-08-06T12:00:02Z","level":"ERROR","msg":"panic captured","attrs":{"reason":"panic"}}
`
	trace, err := tpilayout.ParseTrace(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Balanced() || len(trace.Unbalanced) != 1 || trace.Unbalanced[0] != 7 {
		t.Fatalf("want exactly span 7 unbalanced, got %v", trace.Unbalanced)
	}
	var buf bytes.Buffer
	summarizeLogs(&buf, trace)
	if !strings.Contains(buf.String(), "ERROR panic captured") {
		t.Errorf("panic log line not surfaced:\n%s", buf.String())
	}
}
