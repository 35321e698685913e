package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// FuzzJobRequest throws arbitrary bytes at the submission decoder through
// the full handler: whatever the body, the server must answer (2xx for a
// valid job, 4xx for garbage) and never panic — the same hardening bar
// FuzzParseBench holds the .bench reader to. Every body goes in twice,
// the second time once the first job is over, so an accepted job's second
// answer is the request index's. It equals the first: a refusal the same
// code and error text, a job the same key, tenant, circuit and levels.
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
	f.Add([]byte(fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"skip_atpg":true}} {"x":1}`, testBench)))
	f.Add([]byte(fmt.Sprintf(`{"circuit":{"bench":%q},"tp_levels":[0],"flow":{"skip_atpg":true,"atpg_budget_ms":5}}`, testBench)))

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
			if rec.Code == http.StatusAccepted {
				var st JobStatus
				json.Unmarshal(rec.Body.Bytes(), &st)
				waitOver(t, s, st.ID)
			}
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
		if first.Code/100 == 4 {
			if first.Code != second.Code || first.Body.String() != second.Body.String() {
				t.Fatalf("body %q refused %d %s, then %d %s", body, first.Code, first.Body, second.Code, second.Body)
			}
			return
		}
		var a, b JobStatus
		json.Unmarshal(first.Body.Bytes(), &a)
		json.Unmarshal(second.Body.Bytes(), &b)
		if a.Key == "" || a.Key != b.Key || a.Tenant != b.Tenant || a.Circuit != b.Circuit || !slices.Equal(a.TPLevels, b.TPLevels) {
			t.Fatalf("body %q answered %+v, then %+v", body, a, b)
		}
	})
}

// waitOver waits until job id is terminal, whatever its state.
func waitOver(t *testing.T, s *Server, id string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if getStatus(t, s, id).State.terminal() {
			return
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
}
