package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobRequest throws arbitrary bytes at the submission decoder through
// the full handler: whatever the body, the server must answer (2xx for a
// valid job, 4xx for garbage) and never panic — the same hardening bar
// FuzzParseBench holds the .bench reader to. Every body goes in twice,
// and the second answer, which the request index may give, agrees with
// the first: same status class, and the same key for a job.
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{{{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"tenant":"a","tp_levels":[0]}`))
	f.Add([]byte(`{"circuit":{"spec":"s38417c","scale":1e308},"tp_levels":[0]}`))
	f.Add([]byte(`{"circuit":{"bench":"INPUT(a)\nOUTPUT(a)\n"},"tp_levels":[0,100]}`))
	f.Add([]byte(fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"skip_atpg":true}}`, testBench)))
	f.Add([]byte(`{"circuit":{"bench":"x = DFF(x)"},"tp_levels":[1]}`))
	f.Add([]byte(`{"circuit":{"spec":"wctrl1"},"tp_levels":[-1]}`))
	f.Add([]byte(`{"circuit":{"name":"only-a-name"},"tp_levels":[5],"flow":{"workers":9999}}`))

	s := New(Options{Workers: 1, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	// Never run a real flow for fuzz inputs that happen to validate.
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }

	f.Fuzz(func(t *testing.T, body []byte) {
		var answers [2]*httptest.ResponseRecorder
		for i := range answers {
			req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req) // must not panic
			switch {
			case rec.Code >= 200 && rec.Code < 300:
			case rec.Code >= 400 && rec.Code < 500:
			case rec.Code == http.StatusServiceUnavailable:
				// Queue pressure from earlier fuzz-accepted jobs is fine.
			default:
				t.Fatalf("submission answered %d for body %q", rec.Code, body)
			}
			answers[i] = rec
		}
		first, second := answers[0], answers[1]
		if pressure := func(code int) bool {
			return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		}; pressure(first.Code) || pressure(second.Code) {
			return
		}
		if first.Code/100 != second.Code/100 {
			t.Fatalf("body %q answered %d, then %d", body, first.Code, second.Code)
		}
		if first.Code/100 == 2 {
			var a, b JobStatus
			json.Unmarshal(first.Body.Bytes(), &a)
			json.Unmarshal(second.Body.Bytes(), &b)
			if a.Key == "" || a.Key != b.Key {
				t.Fatalf("body %q keyed %q, then %q", body, a.Key, b.Key)
			}
		}
	})
}
