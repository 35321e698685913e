package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"tpilayout/internal/flow"
	"tpilayout/internal/telemetry"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram holds BENCHMARK.json to the metric tables the
// program emits from, and both to the benchmark contract's limits.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n json %+v\n prog %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n json %+v\n prog %+v", m.PerLayer, perLayer)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1–200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", m.Paths, m.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q: bad or repeated", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		setup = setup || d == metricDef{"setup_s", "s", lower, d.Bound}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("setup_s present: %v; %d end-to-end, %d per-layer metrics", setup, len(endToEnd), len(perLayer))
	}
}

// TestSmoke runs every workload's smoke script through both passes and
// checks what comes out: each metric of the manifest once, with its unit;
// the end-to-end ones non-zero; the tables identical between the passes;
// and a trace that parses, balances and accounts for the time of its runs.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var hashes [2]string
			for pass, defs := range [][]metricDef{endToEnd, perLayer} {
				opt := options{workload: w, seed: 7, seconds: 20, smoke: true, traced: pass == 1, outDir: dir}
				res, err := runWorkload(opt)
				if err != nil {
					t.Fatal(err)
				}
				var stdout bytes.Buffer
				report(&stdout, res)
				out, err := parseOutcome(stdout.Bytes())
				if err != nil {
					t.Fatalf("%v\n%s", err, stdout.String())
				}
				if !out.Correct || out.Failed != 0 || out.Attempted != len(res.script.Ops) {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", out.Correct, out.Failed, out.Attempted, stdout.String())
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("pass %d printed %d metrics, the manifest lists %d", pass, len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
						t.Errorf("pass %d: metric %s: got %+v (present %v), want unit %s", pass, d.Name, m, ok, d.Unit)
					}
					if pass == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %g, must never be 0", d.Name, m.Value)
					}
				}
				hashes[pass] = res.quality.tablesSHA256()
				if ratio := res.cpuS() / res.wallS(); ratio > 1.2 {
					t.Errorf("pass %d: %.2f cpu-seconds per wall-second, want one busy thread", pass, ratio)
				}
				if pass == 1 {
					checkLayers(t, w, out.Metrics)
				}
			}
			if hashes[0] != hashes[1] {
				t.Errorf("tables_sha256 differs between the untraced and the traced pass")
			}

			f, err := os.Open(filepath.Join(dir, "trace-"+w+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tr, err := telemetry.ParseTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Balanced() || len(tr.Spans) == 0 {
				t.Fatalf("trace: %d spans, unbalanced %v", len(tr.Spans), tr.Unbalanced)
			}
			var runs, stages float64
			for _, sp := range tr.Spans {
				if _, ok := stageLayers[sp.Stage]; ok {
					stages += sp.Duration.Seconds()
				} else if sp.Stage == flow.StageRun {
					runs += sp.Duration.Seconds()
				}
			}
			if stages < 0.95*runs {
				t.Errorf("stage spans cover %.3f s of %.3f s of run spans, want at least 95 %%", stages, runs)
			}
		})
	}
}

// checkLayers spot-checks that the traced pass separates the layers the
// way the workloads were chosen to.
func checkLayers(t *testing.T, workload string, m map[string]metricValue) {
	t.Helper()
	atpg := workload == wSweepATPG || workload == wTpidMix
	if got := m["atpg.busy_s"].Value > 0 && m["atpg.fe_pct"].Value > 0 && m["atpg.podem_targets"].Value > 0; got != atpg {
		t.Errorf("ATPG metrics present = %v, want %v", got, atpg)
	}
	for _, name := range []string{"place.busy_s", "tpi.points", "route.nets", "proc.allocs_per_op", "circuitgen.generate_ms", "telemetry.events_per_sweep"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %g, want a positive value on every workload", name, m[name].Value)
		}
	}
	service := workload == wTpidCold || workload == wTpidMix
	if got := m["service.submit_ms"].Value > 0 && m["service.recover_ms"].Value > 0 && m["service.replayed_jobs"].Value == 1; got != service {
		t.Errorf("service metrics present = %v, want %v", got, service)
	}
	if got := m["journal.append_us"].Value > 0 && m["trachive.put_ms"].Value > 0 && m["tracecmp.diff_ms"].Value > 0; got != (workload == wTpidCold) {
		t.Errorf("store metrics present = %v on %s", got, workload)
	}
	if workload == wTpidMix && (m["service.dedupe_ratio"].Value <= 0 || m["service.hit_p50_ms"].Value <= 0 || m["service.levels_resumed"].Value != 1) {
		t.Errorf("tpid_mix: dedupe %g, hit p50 %g, levels resumed %g", m["service.dedupe_ratio"].Value, m["service.hit_p50_ms"].Value, m["service.levels_resumed"].Value)
	}
	if workload == wSweepATPG && (m["flow.incr_vs_full"].Value <= 0 || m["flow.w2_speedup"].Value <= 0) {
		t.Errorf("sweep_atpg: incr_vs_full %g, w2_speedup %g", m["flow.incr_vs_full"].Value, m["flow.w2_speedup"].Value)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 17.5}, {50, 25}, {90, 37}, {100, 40}, {-5, 10}, {150, 40}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", vs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g", got)
	}
	if !reflect.DeepEqual(vs, []float64{40, 10, 30, 20}) {
		t.Errorf("percentile reordered its input: %v", vs)
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{1, 2, 9}, (0.25*1 + 2 + 0.25*9) / 1.5},
		{[]float64{100, 2, 3, -50}, 2.5},
		{[]float64{8, 1, 2, 3, 4, 5, 6, 7}, 4.5},
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1e6, 1e6}, 1}, // a fifth of the samples spoiled: unmoved
	} {
		if got := midmean(c.vs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("midmean(%v) = %g, want %g", c.vs, got, c.want)
		}
	}
}

// TestBlockMeter: blocks close every size ops, and the reported rates come
// from the middle half of them.
func TestBlockMeter(t *testing.T) {
	b := &blockMeter{size: 3}
	b.begin()
	for i := 0; i < 7; i++ {
		b.opDone()
	}
	if len(b.wallS) != 2 || len(b.cpuS) != 2 || b.ops != 1 {
		t.Fatalf("7 ops in blocks of 3: %d blocks closed, %d ops open", len(b.wallS), b.ops)
	}
	b.wallS, b.cpuS = []float64{1.5, 1.5, 1.5, 60}, []float64{3, 3, 3, 90}
	if got := b.opsPerS(); got != 2 {
		t.Errorf("opsPerS = %g, want 2", got)
	}
	if got := b.cpuSPerOp(); got != 1 {
		t.Errorf("cpuSPerOp = %g, want 1", got)
	}
	b.begin()
	if len(b.wallS) != 0 || b.ops != 0 {
		t.Errorf("begin did not start over")
	}
}

func TestScriptIsAFunctionOfItsArguments(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makeScript(w, 3, 20, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeScript(w, 3, 20, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two scripts", w)
		}
		other, _ := makeScript(w, 4, 20, false)
		if len(other.Ops) != len(a.Ops) {
			t.Errorf("%s: the seed changed the op count: %d vs %d", w, len(a.Ops), len(other.Ops))
		}
		seen := map[circuit]bool{}
		for _, c := range a.Circuits {
			if seen[c] {
				t.Errorf("%s: circuit %+v appears twice in one run", w, c)
			}
			seen[c] = true
		}
		for _, c := range other.Circuits {
			if seen[c] {
				t.Errorf("%s: seeds 3 and 4 share circuit %+v", w, c)
			}
		}
		longer, _ := makeScript(w, 3, 40, false)
		if len(longer.Ops) <= len(a.Ops) {
			t.Errorf("%s: -seconds 40 gives %d ops, -seconds 20 gives %d", w, len(longer.Ops), len(a.Ops))
		}
		smoke, _ := makeScript(w, 3, 20, true)
		for _, s := range []*script{a, longer, smoke} {
			if s.Block < 1 || len(s.Ops)%s.Block != 0 {
				t.Errorf("%s: %d ops do not split into blocks of %d", w, len(s.Ops), s.Block)
			}
		}
	}

	// Two orders of one circuit are different texts of the same size, and
	// the same order twice is the same text.
	c := circuit{Spec: "s38417c", Scale: 0.02, Seed: 38417, Shuffle: 1}
	t1, err := c.text()
	if err != nil {
		t.Fatal(err)
	}
	again, _ := c.text()
	c.Shuffle = 2
	t2, _ := c.text()
	if t1 != again || t1 == t2 || len(t1) != len(t2) {
		t.Errorf("shuffled texts: same order equal %v, other order equal %v, sizes %d and %d", t1 == again, t1 == t2, len(t1), len(t2))
	}
	d1, err := c.design()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := circuit{Spec: "s38417c", Scale: 0.02, Seed: 38417}.design()
	if d1.NumLiveCells() != plain.NumLiveCells() || d1.NumFlipFlops() != plain.NumFlipFlops() {
		t.Errorf("shuffling changed the circuit: %d cells %d FFs vs %d cells %d FFs",
			d1.NumLiveCells(), d1.NumFlipFlops(), plain.NumLiveCells(), plain.NumFlipFlops())
	}

	mix, _ := makeScript(wTpidMix, 0, 20, false)
	want := expectedStats{FlowRuns: 12, LevelsRun: 36, LevelsResumed: 18, CacheHits: 558}
	if got := mix.expectedStats(); got != want {
		t.Errorf("tpid_mix at 20 s expects %+v, want %+v", got, want)
	}
}
