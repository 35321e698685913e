package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0–100) of vs by linear
// interpolation between closest ranks, the definition numpy and
// statistics.quantiles(method="inclusive") use. It returns 0 for no samples.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo+1 == len(s) { // a single sample
		return s[lo]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// midmean is the interquartile mean: the mean of the middle half of vs,
// the samples at the edges of that half counted by the fraction of them
// inside it. Like the median it ignores what a quarter of the samples at
// either end do; unlike the median it moves smoothly when the samples fall
// in two clusters (a cache hit with and without a GC cycle beside it), and
// it averages half the samples instead of reading one. It returns 0 for no
// samples.
func midmean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	lo, hi := float64(len(s))/4, 3*float64(len(s))/4
	var sum float64
	for i, v := range s {
		// The share of [i, i+1] that lies inside [lo, hi].
		if w := math.Min(float64(i+1), hi) - math.Max(float64(i), lo); w > 0 {
			sum += w * v
		}
	}
	if hi == lo {
		return 0
	}
	return sum / (hi - lo)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's high-water resident set (VmHWM), falling
// back to getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procSnapshot is the allocator, GC and CPU state at one instant; the
// measured phase is the difference of two.
type procSnapshot struct {
	at         time.Time
	cpuS       float64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcCPUS     float64
}

func takeProcSnapshot() procSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	p := procSnapshot{at: time.Now(), cpuS: cpuSeconds(), allocBytes: m.TotalAlloc, allocs: m.Mallocs, gcCycles: m.NumGC}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPUS = gc[0].Value.Float64()
	}
	return p
}

// heapInuseMB is HeapInuse right after a forced collection: what the
// process retains, not what it has not yet swept.
func heapInuseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// blockMeter cuts the measured phase into blocks of equal op count and
// keeps each block's wall and CPU time. Throughput and CPU cost are
// reported from the middle half of the blocks (midmean), never as totals
// over the run: a burst from another tenant of the host spoils the blocks
// it hits, not the run.
type blockMeter struct {
	size  int // ops per block
	ops   int // ops since the block began
	at    time.Time
	cpu   float64
	wallS []float64
	cpuS  []float64
}

// begin starts the first block; a second call starts the phase over.
func (b *blockMeter) begin() {
	b.ops, b.wallS, b.cpuS = 0, nil, nil
	b.at, b.cpu = time.Now(), cpuSeconds()
}

// opDone counts one finished op, failed or not, and closes the block when
// it is full.
func (b *blockMeter) opDone() {
	if b.ops++; b.ops < b.size {
		return
	}
	now, cpu := time.Now(), cpuSeconds()
	b.wallS = append(b.wallS, now.Sub(b.at).Seconds())
	b.cpuS = append(b.cpuS, cpu-b.cpu)
	b.ops, b.at, b.cpu = 0, now, cpu
}

// opsPerS is the throughput of the middle half of the blocks, cpuSPerOp
// their CPU cost per op.
func (b *blockMeter) opsPerS() float64   { return float64(b.size) / midmean(b.wallS) }
func (b *blockMeter) cpuSPerOp() float64 { return midmean(b.cpuS) / float64(b.size) }
