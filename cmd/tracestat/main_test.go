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

// TestSummarizePercentileTable pins the p50/p99 distribution table
// format exactly: histogram rows after the counter table, one count/
// p50/p99 row per histogram, duration formatting for *_ns names.
func TestSummarizePercentileTable(t *testing.T) {
	var buf bytes.Buffer
	summarize(&buf, "fixture", parseFixture(t))
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

// sharedText is a sweep in which the 3 % level rounds to the 2 % level's
// test-point count: its run span copied the 2 % row after a one-second
// wait, so it carries flow.shared_level and no stages.
const sharedText = `{"ev":"span_start","id":1,"stage":"run","tp":2,"t":"2026-08-06T12:00:00Z"}
{"ev":"span_start","id":2,"parent":1,"stage":"atpg","tp":2,"t":"2026-08-06T12:00:00Z"}
{"ev":"span_start","id":3,"stage":"run","tp":3,"t":"2026-08-06T12:00:00Z"}
{"ev":"span_end","id":2,"parent":1,"stage":"atpg","tp":2,"t":"2026-08-06T12:00:00Z","dur_ns":2000000000,"counters":{"atpg.patterns":154}}
{"ev":"span_end","id":1,"stage":"run","tp":2,"t":"2026-08-06T12:00:00Z","dur_ns":2000000000}
{"ev":"span_end","id":3,"stage":"run","tp":3,"t":"2026-08-06T12:00:00Z","dur_ns":1000000000,"counters":{"flow.shared_level":1}}
`

// TestSummarizeSharedLevel: a level whose run is shared prints "shared"
// in every cell of the stage table, and its wait stays out of the run
// total the stages are measured against.
func TestSummarizeSharedLevel(t *testing.T) {
	trace, err := tpilayout.ParseTrace(strings.NewReader(sharedText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	summarize(&buf, "shared", trace)
	out := buf.String()
	want := `
stage         tp 2.0%    tp 3.0%
atpg            2.00s     shared
run total       2.00s     shared
other             0µs     shared

stages account for 100.0% of the 2.00s total run wall time
`
	if !strings.Contains(out, want) {
		t.Errorf("shared level not shown as shared.\nwant section:\n%s\ngot output:\n%s", want, out)
	}
}

// serviceText is a tpid-style stream: a run's spans interleaved with
// observation events (span_end id 0, the service's metric flushes),
// all carrying correlation attrs.
const serviceText = `{"ev":"span_start","id":1,"stage":"run","tp":0,"t":"2026-08-06T12:00:00Z","attrs":{"run_id":"r000001-aa","job_id":"j1","tenant":"acme"}}
{"ev":"span_end","id":0,"stage":"service","tp":-1,"t":"2026-08-06T12:00:01Z","counters":{"service.cache_hits":2},"gauges":{"service.queue_depth":3}}
{"ev":"span_end","id":0,"stage":"service","tp":-1,"t":"2026-08-06T12:00:01Z","counters":{"service.jobs_done":1},"attrs":{"tenant":"acme"}}
{"ev":"span_end","id":1,"stage":"run","tp":0,"t":"2026-08-06T12:00:03Z","dur_ns":3000000000,"attrs":{"run_id":"r000001-aa","job_id":"j1","tenant":"acme"}}
`

// TestObservationsKeepBalance: observation events in a service stream
// are no spans and never unbalance it; the run span still tabulates.
func TestObservationsKeepBalance(t *testing.T) {
	trace, err := tpilayout.ParseTrace(strings.NewReader(serviceText))
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Balanced() || len(trace.Spans) != 1 || len(trace.Events) != 4 {
		t.Fatalf("got %d spans in %d events, unbalanced ids %v; want 1 balanced span in 4 events",
			len(trace.Spans), len(trace.Events), trace.Unbalanced)
	}
	var buf bytes.Buffer
	summarize(&buf, "service", trace)
	if !strings.Contains(buf.String(), "4 events, 1 spans (1 runs)") {
		t.Errorf("summary does not count the run:\n%s", buf.String())
	}
}

// TestUnbalancedNamesOpenSpans: a stuck run's stream — its run and atpg
// spans still open, plus an end whose start the stream never carried —
// reports each unbalanced span by stage, level and id, in stream order.
func TestUnbalancedNamesOpenSpans(t *testing.T) {
	stuck := `{"ev":"span_end","id":7,"stage":"place","tp":1,"t":"2026-08-06T12:00:00Z","dur_ns":1000000}
{"ev":"span_start","id":8,"stage":"run","tp":2,"t":"2026-08-06T12:00:01Z"}
{"ev":"span_end","id":0,"stage":"service","tp":-1,"t":"2026-08-06T12:00:01Z","counters":{"service.levels_run":1}}
{"ev":"span_start","id":9,"parent":8,"stage":"tpi","tp":2,"t":"2026-08-06T12:00:01Z"}
{"ev":"span_end","id":9,"parent":8,"stage":"tpi","tp":2,"t":"2026-08-06T12:00:01Z","dur_ns":1000}
{"ev":"span_start","id":10,"parent":8,"stage":"atpg","tp":2,"t":"2026-08-06T12:00:02Z"}
`
	trace, err := tpilayout.ParseTrace(strings.NewReader(stuck))
	if err != nil {
		t.Fatal(err)
	}
	want := "place @ tp 1.0% (id 7), run @ tp 2.0% (id 8), atpg @ tp 2.0% (id 10)"
	if got := strings.Join(openSpans(trace), ", "); got != want {
		t.Errorf("open spans = %q, want %q", got, want)
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
