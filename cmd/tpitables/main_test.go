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
