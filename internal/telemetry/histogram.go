package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
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

// Histogram is a span-scoped latency/size distribution with
// power-of-two exponential buckets. Observe is lock-free (one atomic
// add on the bucket plus sum/count), safe for concurrent use, and —
// like every telemetry handle — a no-op on a nil receiver, so
// instrumented hot loops pay one nil check when telemetry is off.
//
// Hot paths that observe at very high rates from a single goroutine
// (PODEM calls, per-net routing) should record into a Local() shard —
// plain non-atomic counts owned by one goroutine — and Flush it into
// the histogram once at the end of the run. That is the lock-free
// per-shard recording scheme: N goroutines each own a LocalHist, and
// the merge at flush is the only synchronized step.
type Histogram struct {
	name    string
	counts  [histBuckets]atomic.Uint64
	sum     atomic.Int64
	observd atomic.Int64
}

// Observe records one value (a duration in nanoseconds, a depth, a
// count). No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[histBucketOf(v)].Add(1)
	h.sum.Add(v)
	h.observd.Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Local returns a new single-goroutine shard of the histogram (nil on
// a nil receiver, keeping the whole disabled subtree free). The shard
// records without atomics; call Flush to merge it back.
func (h *Histogram) Local() *LocalHist {
	if h == nil {
		return nil
	}
	return &LocalHist{parent: h}
}

// Snapshot returns the histogram's current merged state.
func (h *Histogram) Snapshot() HistData {
	if h == nil {
		return HistData{}
	}
	d := HistData{Count: h.observd.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			if d.Buckets == nil {
				d.Buckets = make(map[int]uint64, 8)
			}
			d.Buckets[i] = c
		}
	}
	return d
}

// LocalHist is one goroutine's private shard of a Histogram: plain
// counts, no atomics, no locks. Exactly one goroutine may Observe a
// given shard at a time; Flush merges the shard into the parent with
// atomic adds and resets it, and must not race with that goroutine's
// Observes. All methods are no-ops on a nil receiver.
type LocalHist struct {
	parent  *Histogram
	counts  [histBuckets]uint64
	sum     int64
	observd int64
}

// Observe records one value into the shard.
func (l *LocalHist) Observe(v int64) {
	if l == nil {
		return
	}
	l.counts[histBucketOf(v)]++
	l.sum += v
	l.observd++
}

// ObserveDuration records a duration in nanoseconds into the shard.
func (l *LocalHist) ObserveDuration(d time.Duration) { l.Observe(int64(d)) }

// Flush merges the shard into its parent histogram and zeroes the
// shard, so a shard may be flushed more than once (e.g. per batch)
// without double counting.
func (l *LocalHist) Flush() {
	if l == nil || l.observd == 0 {
		return
	}
	for i, c := range l.counts {
		if c != 0 {
			l.parent.counts[i].Add(c)
			l.counts[i] = 0
		}
	}
	l.parent.sum.Add(l.sum)
	l.parent.observd.Add(l.observd)
	l.sum, l.observd = 0, 0
}

// HistData is the serializable snapshot of a histogram: total count,
// sum of observations, and the sparse bucket populations keyed by
// bucket index (see HistBucketUpper for the bounds). It is the NDJSON
// wire form (riding on span_end events) and the cross-run merge unit:
// all histograms share one bucket layout, so Merge is index-wise
// addition — across shards, across sweep levels, across runs.
type HistData struct {
	Count   int64          `json:"n"`
	Sum     int64          `json:"s"`
	Buckets map[int]uint64 `json:"b,omitempty"`
}

// Observation returns the HistData of one observed value — the unit a
// caller without a long-lived Histogram (the service layer's per-event
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
// layout. Returns 0 for an empty histogram.
func (d HistData) Quantile(q float64) float64 {
	if d.Count == 0 || len(d.Buckets) == 0 {
		return 0
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
