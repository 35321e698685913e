package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadTableFlagRejected: a -table value that selects no table must
// fail before any circuit is generated, not sweep and print nothing.
func TestBadTableFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "tpitables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tpitables: %v\n%s", err, out)
	}
	for _, table := range []string{"4", "al", ""} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-circuits", "s38417c", "-scale", "0.05", "-levels", "0", "-table", table)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("-table %q: err = %v, want a non-zero exit", table, err)
		}
		if !strings.Contains(stderr.String(), "-table") {
			t.Errorf("-table %q: stderr does not name the flag: %s", table, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-table %q: a circuit was swept before the flag was rejected:\n%s", table, stdout.String())
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

// TestATPGBudgetNote: an expired -atpg-budget truncates the level rather
// than failing it, and a note after the tables names the level.
func TestATPGBudgetNote(t *testing.T) {
	out := runTables(t, "-levels", "0", "-atpg-budget", "1ns")
	note := strings.Index(out, "note: ATPG budget expired at 0% TPs")
	if note < 0 || note < strings.Index(out, "Table 3") {
		t.Errorf("no truncation note after the tables:\n%s", out)
	}
}

// TestTableList: -table 2,3 prints those two tables and no Table 1.
func TestTableList(t *testing.T) {
	out := runTables(t, "-levels", "0", "-table", "2,3")
	if strings.Contains(out, "Table 1") || !strings.Contains(out, "Table 2") || !strings.Contains(out, "Table 3") {
		t.Errorf("-table 2,3 printed the wrong tables:\n%s", out)
	}
}
