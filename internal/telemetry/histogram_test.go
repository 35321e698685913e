package telemetry

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3},
		{9, 4}, {1024, 10}, {1025, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := histBucketOf(c.v); got != c.want {
			t.Errorf("histBucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's contents must be <= its upper bound and > the
	// previous bound.
	for _, v := range []int64{1, 2, 3, 7, 100, 1 << 20, 1<<40 + 3} {
		i := histBucketOf(v)
		if v > HistBucketUpper(i) {
			t.Errorf("v %d above bucket %d bound %d", v, i, HistBucketUpper(i))
		}
		if i > 0 && v <= HistBucketUpper(i-1) {
			t.Errorf("v %d should be in bucket %d or lower", v, i-1)
		}
	}
}

func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.ObserveDuration(time.Second)
	if l := h.Local(); l != nil {
		t.Fatal("nil histogram produced a local shard")
	}
	var l *LocalHist
	l.Observe(5)
	l.ObserveDuration(time.Second)
	l.Flush()
	if d := h.Snapshot(); d.Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
	// Nil-span registration keeps the whole subtree free.
	var sp *Span
	sp.Histogram("x").Observe(1)
	sp.Histogram("x").Local().Observe(1)
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := &Histogram{name: "t"}
	// 100 observations of 100, 10 of 100_000.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000)
	}
	d := h.Snapshot()
	if d.Count != 110 || d.Sum != 100*100+10*100_000 {
		t.Fatalf("count/sum = %d/%d", d.Count, d.Sum)
	}
	// p50 must land in the bucket holding 100 (64,128]; p99 in the one
	// holding 100_000 (65536,131072].
	if q := d.Quantile(0.5); q <= 64 || q > 128 {
		t.Errorf("p50 = %g, want in (64,128]", q)
	}
	if q := d.Quantile(0.99); q <= 65536 || q > 131072 {
		t.Errorf("p99 = %g, want in (65536,131072]", q)
	}
	if q := d.Quantile(0); q < 0 || q > 128 {
		t.Errorf("p0 = %g", q)
	}
	if (HistData{}).Quantile(0.5) != 0 {
		t.Error("empty quantile != 0")
	}
}

func TestLocalHistFlushAndMerge(t *testing.T) {
	h := &Histogram{name: "t"}
	shards := make([]*LocalHist, 4)
	for i := range shards {
		shards[i] = h.Local()
	}
	var wg sync.WaitGroup
	for s, l := range shards {
		wg.Add(1)
		go func(s int, l *LocalHist) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Observe(int64(s*1000 + i))
			}
		}(s, l)
	}
	wg.Wait()
	for _, l := range shards {
		l.Flush()
		l.Flush() // second flush of a drained shard is a no-op
	}
	d := h.Snapshot()
	if d.Count != 4000 {
		t.Fatalf("merged count = %d, want 4000", d.Count)
	}
	var bucketTotal uint64
	for _, c := range d.Buckets {
		bucketTotal += c
	}
	if bucketTotal != 4000 {
		t.Fatalf("bucket total = %d, want 4000", bucketTotal)
	}

	// HistData.Merge is index-wise addition.
	var m HistData
	m.Merge(d)
	m.Merge(d)
	if m.Count != 8000 || m.Sum != 2*d.Sum {
		t.Fatalf("double merge = %d/%d", m.Count, m.Sum)
	}
	for i, c := range d.Buckets {
		if m.Buckets[i] != 2*c {
			t.Fatalf("bucket %d = %d, want %d", i, m.Buckets[i], 2*c)
		}
	}
}

// TestHistogramConcurrentObserve exercises the lock-free path under
// -race: many goroutines observing one histogram directly.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{name: "t"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if d := h.Snapshot(); d.Count != 4000 {
		t.Fatalf("count = %d", d.Count)
	}
}

// TestSpanHistogramFlush: histograms registered on a span ride its
// span_end event through an NDJSON round trip, duplicate names merging.
func TestSpanHistogramFlush(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	tr := New(sink)
	sp := tr.StartSpan("atpg", 1)
	sp.Histogram("atpg.podem_ns").Observe(1000)
	sp.Histogram("atpg.podem_ns").Observe(3000) // same name: merged
	empty := sp.Histogram("atpg.unused")
	_ = empty // zero observations: dropped at flush
	sp.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	trace, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(trace.Spans))
	}
	hists := trace.Spans[0].Hists
	got, ok := hists["atpg.podem_ns"]
	if !ok || got.Count != 2 || got.Sum != 4000 {
		t.Fatalf("round-tripped hists = %+v", hists)
	}
	if _, ok := hists["atpg.unused"]; ok {
		t.Fatal("empty histogram flushed")
	}
	if q := got.Quantile(0.5); q <= 0 {
		t.Fatalf("round-tripped quantile = %g", q)
	}
}

// The nil-receiver histogram path must stay as free as the nil counter
// path: ≤2 ns/op, zero allocations (asserted by the bench harness in
// CI via -benchmem and eyeballed locally).
func BenchmarkDisabledHistogram(b *testing.B) {
	b.ReportAllocs()
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkDisabledLocalHist(b *testing.B) {
	b.ReportAllocs()
	var l *LocalHist
	for i := 0; i < b.N; i++ {
		l.Observe(int64(i))
	}
}

func BenchmarkEnabledHistogram(b *testing.B) {
	b.ReportAllocs()
	h := &Histogram{name: "bench"}
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkEnabledLocalHist(b *testing.B) {
	b.ReportAllocs()
	h := &Histogram{name: "bench"}
	l := h.Local()
	for i := 0; i < b.N; i++ {
		l.Observe(int64(i))
	}
	l.Flush()
}
