package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), which is
// how the acceptance check measures a metric's spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// runAA runs two sets of n full untraced runs of this one build, taking
// turns (A1 B1 A2 B2 …; run i of either set uses seed+i), and holds them
// to the benchmark's own rules: within a set, a metric's interquartile
// spread stays inside its bound (setup_s excepted); set B's median is not
// worse than set A's by more than the bound; and the two runs of one seed
// agree bit for bit on every table-quality metric and on tables_sha256.
func runAA(opt options, n int) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	exact := []string{"chip_area_mm2", "wirelength_mm", "tcp_ns"}
	bad := 0
	for i := 1; i <= n; i++ {
		for _, w := range workloadNames {
			var sha [2]string
			var outs [2]*outcome
			for set := range sets {
				o := opt
				o.workload, o.seed, o.traced = w, opt.seed+int64(i), false
				var stdout bytes.Buffer
				out, err := runChild(o, &stdout)
				if err != nil || !out.Correct {
					io.Copy(os.Stdout, &stdout)
					fmt.Printf("aa: %s seed %d set %c failed: %v\n", w, o.seed, 'A'+set, err)
					return 1
				}
				for name, m := range out.Metrics {
					sets[set][key{w, name}] = append(sets[set][key{w, name}], m.Value)
				}
				for _, line := range strings.Split(stdout.String(), "\n") {
					if strings.HasPrefix(line, "tables_sha256 ") {
						sha[set] = line
					}
				}
				outs[set] = out
			}
			if sha[0] != sha[1] {
				fmt.Printf("aa: %s seed %d: tables differ between two runs of one build\n  A %s\n  B %s\n", w, opt.seed+int64(i), sha[0], sha[1])
				bad++
			}
			for _, name := range exact {
				if a, b := outs[0].Metrics[name].Value, outs[1].Metrics[name].Value; a != b {
					fmt.Printf("aa: %s/%s seed %d: %v vs %v from two runs of one build\n", w, name, opt.seed+int64(i), a, b)
					bad++
				}
			}
			fmt.Printf("aa: pair %d/%d %s done\n", i, n, w)
		}
	}

	fmt.Printf("\n%-28s %12s %12s %8s %8s %8s %6s\n", "workload/metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			a, b := sets[0][key{w, d.Name}], sets[1][key{w, d.Name}]
			ma, mb := median(a), median(b)
			spread := func(vs []float64, m float64) float64 {
				q1, q3 := quartiles(vs)
				return (q3 - q1) / m
			}
			sa, sb := spread(a, ma), spread(b, mb)
			gap := (mb - ma) / ma // how much worse B is than A
			if d.Better == higher {
				gap = -gap
			}
			verdict := ""
			if gap > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-28s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w+"/"+d.Name, ma, mb, 100*sa, 100*sb, 100*gap, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("aa: %d checks out of bound\n", bad)
		return 1
	}
	fmt.Println("aa: both sets agree within every bound")
	return 0
}
