package telemetry

import (
	"bytes"
	"math"
	"testing"
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
	var h *Hist
	h.Observe(5)
	// A nil span hands out nil histograms, keeping the whole subtree
	// free.
	var sp *Span
	if sp.Hist("x") != nil {
		t.Fatal("nil span produced a histogram")
	}
	sp.Hist("x").Observe(1)
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := &Hist{}
	// 100 observations of 100, 10 of 100_000.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000)
	}
	d := h.data()
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

// TestQuantileOfOneSample: every quantile of a one-sample histogram is the
// sample, not a point interpolated inside its power-of-two bucket.
func TestQuantileOfOneSample(t *testing.T) {
	d := Observation(11_200_000)
	for _, q := range []float64{0, 0.5, 0.99} {
		if got := d.Quantile(q); got != 11.2e6 {
			t.Errorf("Quantile(%g) = %g, want 11.2e6", q, got)
		}
	}
}

// TestHistDataMerge: merging is index-wise bucket addition.
func TestHistDataMerge(t *testing.T) {
	h := &Hist{}
	for i := 0; i < 4000; i++ {
		h.Observe(int64(i))
	}
	d := h.data()
	var bucketTotal uint64
	for _, c := range d.Buckets {
		bucketTotal += c
	}
	if d.Count != 4000 || bucketTotal != 4000 {
		t.Fatalf("count = %d, bucket total = %d, want 4000", d.Count, bucketTotal)
	}

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

// TestSpanHistogramFlush: histograms registered on a span ride its
// span_end event through an NDJSON round trip, duplicate names merging.
func TestSpanHistogramFlush(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	tr := New(sink)
	sp := tr.StartSpan("atpg", 1)
	sp.Hist("atpg.podem_ns").Observe(1000)
	sp.Hist("atpg.podem_ns").Observe(3000) // same name: same histogram
	sp.Hist("atpg.unused")                 // zero observations: dropped at close
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
// path: ≤2 ns/op, zero allocations (asserted in CI via -benchmem).
func BenchmarkDisabledHist(b *testing.B) {
	b.ReportAllocs()
	var h *Hist
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkEnabledHist(b *testing.B) {
	b.ReportAllocs()
	h := &Hist{}
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
