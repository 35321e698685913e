package tpilayout

// Golden-table regression tests: the rendered Tables 1/2/3 of a small
// fixed sweep are committed under internal/testdata/golden/ and every
// run — serial or parallel — must reproduce them byte-for-byte. This is
// the lock on the concurrency layer: parallelism is only allowed to
// change wall-clock time, never a single output byte.
//
// Regenerate the golden files after an intentional algorithm change with
//
//	go test -run TestSweepGolden -update .

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under internal/testdata/golden")

const goldenDir = "internal/testdata/golden"

// goldenLevels keeps the golden sweep small: baseline, mid, max TP%.
var goldenLevels = []float64{0, 2, 5}

// goldenSweep renders all three tables of a reduced-scale s38417c sweep.
func goldenSweep(t *testing.T, workers int) string {
	t.Helper()
	design, err := Generate(S38417Class().Scale(0.05), DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig("s38417c")
	cfg.Workers = workers
	rows, err := Sweep(design, cfg, goldenLevels)
	if err != nil {
		t.Fatal(err)
	}
	return FormatTable1(rows) + "\n" + FormatTable2(rows) + "\n" + FormatTable3(rows)
}

func TestSweepGolden(t *testing.T) {
	serial := goldenSweep(t, 1)
	parallel := goldenSweep(t, 4)
	if serial != parallel {
		t.Fatalf("parallel sweep output differs from serial:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
	}

	path := filepath.Join(goldenDir, "sweep_s38417c.golden")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if string(want) != serial {
		t.Errorf("sweep output drifted from golden file %s\n%s", path, diffLines(string(want), serial))
	}
}

// diffLines renders a minimal line diff for golden mismatches.
func diffLines(want, got string) string {
	wl, gl := splitKeepLines(want), splitKeepLines(got)
	out := ""
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			out += fmt.Sprintf("line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
		}
	}
	return out
}

func splitKeepLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
