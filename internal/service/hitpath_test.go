//go:build !race

// The race detector's sync.Pool drops pooled buffers at random, so the
// hit path's allocations are only measured without it.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// chainBody is a submission of about 40 kB, the size of the benchmark's
// s38417c ×0.05 body: a chain of NAND gates behind a flip-flop.
func chainBody(tb testing.TB) []byte {
	tb.Helper()
	var bench strings.Builder
	bench.WriteString("INPUT(a)\nINPUT(b)\nOUTPUT(g1800)\nd1 = DFF(a) # domain=clk\ng0 = NAND(d1, b)\n")
	for i := 1; i <= 1800; i++ {
		fmt.Fprintf(&bench, "g%d = NAND(g%d, b)\n", i, i-1)
	}
	body, err := json.Marshal(JobRequest{
		Tenant:   "acme",
		Circuit:  CircuitSpec{Bench: bench.String(), Name: "chain"},
		TPLevels: []float64{0, 2},
		Flow:     FlowConfig{SkipATPG: true},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// primeIndex submits body to a stub-flow server and waits until the
// request index answers it.
func primeIndex(tb testing.TB, s *Server, body []byte) {
	tb.Helper()
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.cache.mu.Lock()
		_, ok := s.cache.byDigest[digestBody(body)]
		s.cache.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatal("the body's run never published an alias")
		}
	}
}

// postHit submits body, which must be answered from the cache, and
// returns the job's id.
func postHit(tb testing.TB, s *Server, body []byte) string {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("hit submit = %d: %s", rec.Code, rec.Body)
	}
	return rec.Header().Get("X-Request-ID")
}

// TestCacheHitAllocatesLessThanItsBody: a byte-identical resubmission
// reads its body into a pooled buffer, hashes it and answers from the
// index, so it allocates less than half its body's size. Decoding it
// would copy the bench text alone once.
func TestCacheHitAllocatesLessThanItsBody(t *testing.T) {
	s := stubServer(t, Options{Workers: 1})
	body := chainBody(t)
	primeIndex(t, s, body)
	postHit(t, s, body) // fills the body pool

	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		postHit(t, s, body)
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per hit on a %d-byte body", perHit, len(body))
	if perHit >= uint64(len(body))/2 {
		t.Fatalf("a hit allocates %d bytes, want under half of its %d-byte body", perHit, len(body))
	}
}

// BenchmarkCacheHit: one cache hit as a client sees it, in process: the
// POST of a byte-identical body and the GET of its result.
func BenchmarkCacheHit(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }
	body := chainBody(b)
	primeIndex(b, s, body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := postHit(b, s, body)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/result", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET /result = %d", rec.Code)
		}
	}
}
