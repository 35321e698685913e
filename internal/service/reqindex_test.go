package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestPinnedKeys: the cache key and checkpoint base key of one request
// in the tpid/v3 key domain (the SAT residue pass and the scan ports). A
// data dir a build of this domain wrote must keep hitting; the pins move
// only with the domain tag.
func TestPinnedKeys(t *testing.T) {
	var req JobRequest
	if err := json.Unmarshal(jobBody(t, "acme", 0, 2), &req); err != nil {
		t.Fatal(err)
	}
	comp, err := compileRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	const (
		key     = "bd7f4e6bbd5ed9efe1ddcd2c5312afebe6b0b43606fedb2add5d80169b5fe2b0"
		baseKey = "8a71eb207ed8892aa834b0b855cb50431cfec11df4b6352a643f6542258fc7d8"
	)
	if comp.key != key || comp.baseKey != baseKey {
		t.Fatalf("key %s base %s, want %s base %s", comp.key, comp.baseKey, key, baseKey)
	}
}

// aliased reports whether the request index resolves body.
func aliased(t *testing.T, s *Server, body []byte) bool {
	t.Helper()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	_, ok := s.cache.byDigest[digestBody(body)]
	return ok
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stubServer is an in-memory server whose flows return stubResult.
func stubServer(t *testing.T, opt Options) *Server {
	t.Helper()
	s := New(opt)
	t.Cleanup(func() { shutdown(t, s) })
	s.runFlow = func(rn *run) (*JobResult, error) { return stubResult(rn), nil }
	return s
}

// submitDone posts body and, when it was accepted for a run, waits for the
// job to finish.
func submitDone(t *testing.T, s *Server, body []byte) (int, JobStatus) {
	t.Helper()
	code, st := postJob(t, s, body)
	switch code {
	case http.StatusAccepted:
		waitState(t, s, st.ID, StateDone)
	case http.StatusOK:
	default:
		t.Fatalf("submit = %d", code)
	}
	return code, st
}

// TestRequestVariantKeys: for requests that mean the same sweep or
// another one, the key an alias serves is the key a full compile on a
// fresh server computes, and cache_hit is what the key rule says — a
// resubmission hits exactly when its key is cached. A body that differs
// from the base body in any byte pays one full compile before its own
// alias answers it.
func TestRequestVariantKeys(t *testing.T) {
	base := JobRequest{
		Tenant:   "acme",
		Circuit:  CircuitSpec{Bench: testBench, Name: "tiny"},
		TPLevels: []float64{0, 2},
		Flow:     FlowConfig{SkipATPG: true},
	}
	variant := func(edit func(r *JobRequest)) JobRequest {
		r := base
		r.TPLevels = append([]float64(nil), base.TPLevels...)
		edit(&r)
		return r
	}
	indented, err := json.MarshalIndent(base, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	// The request as sent, for the cases that are not their req's own
	// encoding.
	sent := map[string][]byte{
		"same fields, indented JSON": indented,
		"same fields, keys reordered": []byte(fmt.Sprintf(
			`{"flow":{"skip_atpg":true},"tp_levels":[0,2],"circuit":{"name":"tiny","bench":%q},"tenant":"acme"}`, testBench)),
	}
	cases := []struct {
		name    string
		req     JobRequest
		sameKey bool // as the base request's
	}{
		{"same fields, indented JSON", base, true},
		{"same fields, keys reordered", base, true},
		{"reformatted", variant(func(r *JobRequest) {
			r.Circuit.Bench = "# a comment\n\nINPUT( a )\nINPUT(b)\n  OUTPUT(y)\nd1 = DFF( a )   # domain=clk\ny = NAND(d1 ,b)\n\n"
		}), true},
		// ReadBench builds flip-flops before gates, so this order is
		// canonical already.
		{"gates permuted", variant(func(r *JobRequest) {
			r.Circuit.Bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(d1, b)\nd1 = DFF(a) # domain=clk\n"
		}), true},
		{"other name", variant(func(r *JobRequest) { r.Circuit.Name = "tiny2" }), false},
		{"default period spelled out", variant(func(r *JobRequest) { r.Circuit.PeriodPS = 10000 }), true},
		{"other period", variant(func(r *JobRequest) { r.Circuit.PeriodPS = 5000 }), false},
		{"clock line", variant(func(r *JobRequest) { r.Circuit.Bench = "# CLOCK clk 10000\n" + testBench }), true},
		{"clock line over period", variant(func(r *JobRequest) {
			r.Circuit.Bench = "# CLOCK clk 10000\n" + testBench
			r.Circuit.PeriodPS = 5000
		}), true},
		{"spec and scale", variant(func(r *JobRequest) {
			r.Circuit = CircuitSpec{Spec: "s38417c", Scale: 0.02}
		}), false},
		{"experiment", variant(func(r *JobRequest) { r.Flow.Experiment = "p26909c" }), false},
		{"experiment as the default", variant(func(r *JobRequest) { r.Flow.Experiment = "s38417c" }), true},
		{"tenant", variant(func(r *JobRequest) { r.Tenant = "other" }), true},
		{"workers", variant(func(r *JobRequest) { r.Flow.Workers = 3 }), true},
	}
	fresh := stubServer(t, Options{Workers: 1})
	_, baseSt := postJob(t, fresh, mustJSON(t, base))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := sent[tc.name]
			if body == nil {
				body = mustJSON(t, tc.req)
			}
			// The key a full compile gives, on a server that has no alias.
			code, want := postJob(t, stubServer(t, Options{Workers: 1}), body)
			if code != http.StatusAccepted {
				t.Fatalf("fresh submit = %d", code)
			}
			if got := want.Key == baseSt.Key; got != tc.sameKey {
				t.Fatalf("same key as the base request: %v, want %v", got, tc.sameKey)
			}

			s := stubServer(t, Options{Workers: 1})
			submitDone(t, s, mustJSON(t, base))
			if aliased(t, s, body) {
				t.Fatal("a body never submitted to this server is aliased")
			}
			// First submission: a full compile, a hit exactly when the key is
			// the base request's.
			code, first := submitDone(t, s, body)
			if (code == http.StatusOK) != tc.sameKey || first.CacheHit != tc.sameKey || first.Key != want.Key {
				t.Fatalf("first submit = %d cache_hit=%v key %s, want hit=%v key %s",
					code, first.CacheHit, first.Key, tc.sameKey, want.Key)
			}
			if !aliased(t, s, body) {
				t.Fatal("no alias after a full compile resolved the request to a cached key")
			}
			// Second submission: served by the alias.
			runs := s.FlowRuns()
			code, second := postJob(t, s, body)
			if code != http.StatusOK || !second.CacheHit || second.Key != want.Key || second.Circuit != want.Circuit {
				t.Fatalf("alias-served submit = %d cache_hit=%v key %s circuit %q, want 200 hit key %s circuit %q",
					code, second.CacheHit, second.Key, second.Circuit, want.Key, want.Circuit)
			}
			if s.FlowRuns() != runs {
				t.Fatal("an alias-served submission ran a flow")
			}
			if second.Tenant != strings.TrimSpace(tc.req.Tenant) || !slices.Equal(second.TPLevels, want.TPLevels) {
				t.Fatalf("alias-served tenant %q levels %v, want %q %v", second.Tenant, second.TPLevels, tc.req.Tenant, want.TPLevels)
			}
		})
	}
}

// TestValidationAfterCache: with a body cached and aliased, its invalid
// variants are refused exactly as the full compile refuses them, and a
// budgeted variant is never answered from an alias or the cache.
func TestValidationAfterCache(t *testing.T) {
	s := stubServer(t, Options{Workers: 1})
	base := JobRequest{
		Tenant:   "acme",
		Circuit:  CircuitSpec{Bench: testBench, Name: "tiny"},
		TPLevels: []float64{0, 2},
		Flow:     FlowConfig{SkipATPG: true},
	}
	body := mustJSON(t, base)
	submitDone(t, s, body)
	if code, st := postJob(t, s, body); code != http.StatusOK || !st.CacheHit || !aliased(t, s, body) {
		t.Fatalf("resubmit = %d cache_hit=%v aliased=%v", code, st.CacheHit, aliased(t, s, body))
	}

	badBench := strings.Replace(testBench, "NAND(d1, b)", "FROB(d1, b)", 1)
	cases := map[string]func(r *JobRequest){
		"tenant of 65 bytes":    func(r *JobRequest) { r.Tenant = strings.Repeat("t", maxTenantLen+1) },
		"workers 65":            func(r *JobRequest) { r.Flow.Workers = maxFlowWorker + 1 },
		"negative budget":       func(r *JobRequest) { r.Flow.ATPGBudgetMS = -1 },
		"level 101":             func(r *JobRequest) { r.TPLevels = []float64{0, 101} },
		"bench and spec":        func(r *JobRequest) { r.Circuit.Spec = "s38417c" },
		"unparsable bench":      func(r *JobRequest) { r.Circuit.Bench = badBench },
		"bad bench, workers 65": func(r *JobRequest) { r.Circuit.Bench = badBench; r.Flow.Workers = maxFlowWorker + 1 },
	}
	for name, edit := range cases {
		req := base
		edit(&req)
		_, want := compileRequest(&req)
		if want == nil {
			t.Fatalf("%s: the full compile accepts it", name)
		}
		code, resp := do(t, s, "POST", "/v1/jobs", mustJSON(t, req))
		var got struct{ Error string }
		json.Unmarshal(resp, &got)
		if code != http.StatusBadRequest || got.Error != want.Error() {
			t.Errorf("%s: %d %q, want 400 %q", name, code, got.Error, want.Error())
		}
	}

	budgeted := base
	budgeted.Flow.ATPGBudgetMS = 50
	for i := 0; i < 2; i++ {
		runs := s.FlowRuns()
		code, st := submitDone(t, s, mustJSON(t, budgeted))
		if code != http.StatusAccepted || st.CacheHit || s.FlowRuns() != runs+1 {
			t.Fatalf("budgeted submit %d = %d cache_hit=%v", i, code, st.CacheHit)
		}
	}
	if aliased(t, s, mustJSON(t, budgeted)) {
		t.Fatal("a budgeted request was aliased")
	}
}

// TestCacheCountersScripted: /v1/stats cache_hits and cache_misses move
// by the parent's counts over hit, miss, coalesced and extend submissions
// (every number below was read off the parent of the request index).
func TestCacheCountersScripted(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	started, release := make(chan struct{}, 4), make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		started <- struct{}{}
		<-release
		return stubResult(rn), nil
	}
	step := func(name string, body []byte, hits, misses int64) JobStatus {
		t.Helper()
		before := s.Stats()
		_, st := postJob(t, s, body)
		after := s.Stats()
		if dh, dm := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; dh != hits || dm != misses {
			t.Fatalf("%s: cache hits +%d misses +%d, want +%d +%d", name, dh, dm, hits, misses)
		}
		return st
	}
	run := func(sts ...JobStatus) {
		t.Helper()
		<-started
		release <- struct{}{}
		for _, st := range sts {
			waitState(t, s, st.ID, StateDone)
		}
	}
	first, full := jobBody(t, "acme", 0, 1), jobBody(t, "acme", 0, 1, 2)
	cold := step("cold", first, 0, 2)
	run(cold, step("coalesced", first, 0, 1))
	run(step("extend", full, 0, 2))
	step("hit", full, 1, 0)
	step("hit again", full, 1, 0)
	step("hit on the first sweep", first, 1, 0)
	step("hit from another tenant", jobBody(t, "other", 0, 1, 2), 1, 0)
	run(step("miss", jobBody(t, "acme", 7), 0, 2))
}

// TestAliasRaceWithPublish (-race): submissions of one body racing its
// run's publication cost one flow between them and all end done with the
// run's key, whichever of coalescing, the cache or the alias answers.
func TestAliasRaceWithPublish(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)
	started, release := make(chan struct{}), make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		close(started)
		<-release
		return stubResult(rn), nil
	}
	body := jobBody(t, "acme", 3, 4)
	code, st := postJob(t, s, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	<-started

	const n = 16
	var wg sync.WaitGroup
	sts := make([]JobStatus, n)
	for i := range sts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, resp := do(t, s, "POST", "/v1/jobs", body)
			if err := json.Unmarshal(resp, &sts[i]); err != nil || code/100 != 2 {
				t.Errorf("racing submit = %d: %s", code, resp)
			}
		}()
		if i == n/2 {
			close(release)
		}
	}
	wg.Wait()
	for _, got := range append(sts, st) {
		if got.ID == "" {
			t.Fatal("a racing submission was refused")
		}
		if done := waitState(t, s, got.ID, StateDone); done.Key != st.Key {
			t.Fatalf("job %s key %s, want %s", got.ID, done.Key, st.Key)
		}
	}
	if runs := s.FlowRuns(); runs != 1 {
		t.Fatalf("%d flows ran, want 1", runs)
	}
}
