package telemetry

import (
	"math"
	"math/bits"
)

// histBuckets is the number of exponential buckets. Bucket i holds
// observations v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1), so
// 63 finite buckets cover every positive int64 and the last bucket
// doubles as the +Inf overflow. Nanosecond observations land around
// bucket 10 (1 µs) to bucket 33 (8.6 s); the layout is the classic
// power-of-two HdrHistogram-style scheme: O(1) recording, ~2x relative
// error, trivially mergeable because every histogram shares the same
// bounds.
const histBuckets = 64

// histBucketOf returns the bucket index for an observation. Negative
// observations are clamped into bucket 0 (durations and counts are
// never negative; a clock hiccup must not index out of range).
func histBucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// HistBucketUpper returns bucket i's inclusive upper bound (its
// Prometheus "le" value). The last bucket's bound is +Inf in the
// exposition; numerically it is MaxInt64.
func HistBucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Hist is a span-scoped latency/size distribution with power-of-two
// exponential buckets: plain counts, owned by the goroutine that ends
// its span, read once at the close. Observe is a no-op on a nil
// receiver, so instrumented hot loops pay one nil check when telemetry
// is off.
type Hist struct {
	counts [histBuckets]uint64
	sum, n int64
}

// Observe records one value (a duration in nanoseconds, a depth, a
// count).
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[histBucketOf(v)]++
	h.sum += v
	h.n++
}

// data returns the histogram's serializable form.
func (h *Hist) data() HistData {
	d := HistData{Count: h.n, Sum: h.sum, Buckets: make(map[int]uint64, 8)}
	for i, c := range h.counts {
		if c != 0 {
			d.Buckets[i] = c
		}
	}
	return d
}

// HistData is the serializable snapshot of a histogram: total count,
// sum of observations, and the sparse bucket populations keyed by
// bucket index (see HistBucketUpper for the bounds). It is the NDJSON
// wire form (riding on span_end events) and the cross-run merge unit:
// all histograms share one bucket layout, so Merge is index-wise
// addition — across spans, across sweep levels, across runs.
type HistData struct {
	Count   int64          `json:"n"`
	Sum     int64          `json:"s"`
	Buckets map[int]uint64 `json:"b,omitempty"`
}

// Observation returns the HistData of one observed value — the unit a
// caller without a span's Hist (the service layer's per-event
// queue-wait samples) merges into a sink-side accumulator.
func Observation(v int64) HistData {
	return HistData{Count: 1, Sum: v, Buckets: map[int]uint64{histBucketOf(v): 1}}
}

// Merge adds other into d (index-wise bucket addition).
func (d *HistData) Merge(other HistData) {
	d.Count += other.Count
	d.Sum += other.Sum
	if other.Buckets == nil {
		return
	}
	if d.Buckets == nil {
		d.Buckets = make(map[int]uint64, len(other.Buckets))
	}
	for i, c := range other.Buckets {
		d.Buckets[i] += c
	}
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the containing power-of-two bucket — the same
// estimate a Prometheus histogram_quantile gives for this bucket
// layout. Returns 0 for an empty histogram, and the sample itself for
// a histogram of one: every quantile of one value is that value.
func (d HistData) Quantile(q float64) float64 {
	if d.Count == 0 || len(d.Buckets) == 0 {
		return 0
	}
	if d.Count == 1 {
		return float64(d.Sum)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.Count)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		c, ok := d.Buckets[i]
		if !ok {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(HistBucketUpper(i - 1))
			}
			hi := float64(HistBucketUpper(i))
			if i == histBuckets-1 {
				// Overflow bucket has no finite width; report its lower bound.
				return lo
			}
			frac := 0.0
			if fc > 0 {
				frac = (rank - cum) / fc
			}
			return lo + (hi-lo)*frac
		}
		cum += fc
	}
	// Unreachable when Count matches the buckets; be defensive.
	return float64(HistBucketUpper(histBuckets - 2))
}
