package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tpilayout"
)

// TestBadFlagRejected: a -table value that selects no table, a
// non-positive -scale, a -circuits list with an unknown name anywhere
// in it, or a flag tpitables does not have, must fail before any circuit
// is swept, not sweep and print tables first.
func TestBadFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "tpitables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tpitables: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // stderr must name it
		code int    // the exit status: 2 for the flag package's errors
	}{
		{[]string{"-table", "4"}, "-table", 1},
		{[]string{"-table", "al"}, "-table", 1},
		{[]string{"-table", ""}, "-table", 1},
		{[]string{"-circuits", "s38417c,nosuch"}, "nosuch", 1},
		{[]string{"-scale", "-0.5"}, "-scale", 1},
		{[]string{"-scale", "0"}, "-scale", 1},
		// ATPG is bounded by counts only; its wall-clock budget is gone.
		{[]string{"-atpg-budget", "1s"}, "-atpg-budget", 2},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-circuits", "s38417c", "-scale", "0.05", "-levels", "0"}, tc.args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != tc.code {
			t.Errorf("%q: err = %v, want exit status %d", tc.args, err, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr does not name %s: %s", tc.args, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: a circuit was swept before the flag was rejected:\n%s", tc.args, stdout.String())
		}
	}
}

// runTables builds tpitables, runs it with args on one small s38417c
// layout per level and returns its stdout; a non-zero exit fails the test.
func runTables(t *testing.T, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "tpitables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tpitables: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-circuits", "s38417c", "-scale", "0.05", "-workers", "1"}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tpitables %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestPresetFollowsAlias: a circuit alias gets its circuit's flow preset
// (p26909c's 32 chains and 50 % utilization), so its tables equal those
// of the paper name.
func TestPresetFollowsAlias(t *testing.T) {
	out := runTables(t, "-circuits", "dsp,p26909c", "-scale", "0.02", "-levels", "0", "-table", "1,2")
	// Each circuit's section starts at its "== name (scale ...)" header;
	// drop the headers, which name the circuit as typed and the wall time.
	var bodies []string
	for _, sec := range strings.Split(out, "== ")[1:] {
		_, body, _ := strings.Cut(sec, "\n")
		bodies = append(bodies, body)
	}
	if len(bodies) != 2 || bodies[0] != bodies[1] {
		t.Errorf("-circuits dsp and p26909c print different tables:\n%s", out)
	}
}

// TestTableList: -table 2,3 prints those two tables and no Table 1.
func TestTableList(t *testing.T) {
	out := runTables(t, "-levels", "0", "-table", "2,3")
	if strings.Contains(out, "Table 1") || !strings.Contains(out, "Table 2") || !strings.Contains(out, "Table 3") {
		t.Errorf("-table 2,3 printed the wrong tables:\n%s", out)
	}
}

// TestTraceFlag: -trace writes and closes a balanced trace holding one
// run per swept level.
func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	runTables(t, "-levels", "0,1", "-table", "2", "-trace", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := tpilayout.ParseTrace(f)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if !tr.Balanced() {
		t.Errorf("trace is unbalanced: spans %v never closed", tr.Unbalanced)
	}
	if n := len(tr.Levels()); n != 2 {
		t.Errorf("trace holds %d levels, want 2", n)
	}
}
