package service

// The recovery invariant suite: seeded fault injection drives the full
// crash-safety surface — level panics, journal append failures, abrupt
// kills, torn segment tails — and after every scenario the journal and
// the restarted server must satisfy the recovery invariants:
//
//  1. no job ever retires twice (at most one terminal record per ID);
//  2. with an intact journal, every accepted job is queryable after
//     restart and reaches exactly one terminal state;
//  3. a torn tail (garbage appended to the newest segment) never
//     prevents recovery of the records written before it;
//  4. after a final clean drain, the journal folds to zero pending jobs;
//  5. nothing leaks: the goroutine count settles back to the baseline.
//
// Every decision comes from a seeded chaos.Injector, so a failing seed
// replays identically under -run 'TestChaosRecoveryInvariants/seed=N'.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"tpilayout/internal/chaos"
	"tpilayout/internal/flow"
	"tpilayout/internal/journal"
	"tpilayout/internal/netlist"
)

func TestChaosRecoveryInvariants(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	before := runtime.NumGoroutine()
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosScenario(t, int64(seed))
		})
	}
	waitGoroutines(t, before)
}

// chaosScenario runs one full crash/recovery cycle under a seeded
// injector and checks every invariant that must survive it.
func chaosScenario(t *testing.T, seed int64) {
	dir := t.TempDir()
	inj := chaos.New(seed)
	inj.Arm("level.fail", chaos.Plan{Probability: 0.35, Limit: 5})
	inj.Arm("journal.append", chaos.Plan{Probability: 0.08, Limit: 2})
	inj.Arm("kill", chaos.Plan{Probability: 0.5, Limit: 1})
	inj.Arm("cancel", chaos.Plan{Probability: 0.3, Limit: 1})
	inj.Arm("garbage", chaos.Plan{Probability: 0.5, Limit: 1})

	chaosLevel := func(rn *run, base *netlist.Netlist, cfg flow.Config, pct float64) flow.LevelResult {
		if inj.Should("level.fail") {
			return flow.LevelResult{TPPercent: pct, Err: panicStageError(pct)}
		}
		return flow.LevelResult{TPPercent: pct, Metrics: stubMetrics(pct)}
	}
	jh := inj.JournalHook()
	jhook := func(op journal.Op) error { return jh(string(op)) }

	s1, err := Open(Options{
		Workers: 2, QueueDepth: 16, DataDir: dir,
		journalNoSync: true, journalHook: jhook,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.runLevel = chaosLevel // safe: empty journal, replay readmits nothing
	waitFor(t, func() bool { return s1.Stats().Ready })

	// The workload: two identical jobs (they coalesce), one distinct, one
	// budgeted (uncacheable, never checkpointed). Cache-hit answers
	// (code 200) are terminal immediately and never journaled — exclude
	// them from the replay-visibility invariant.
	var tracked []string
	submit := func(body []byte) {
		code, st := postJob(t, s1, body)
		switch code {
		case http.StatusAccepted:
			tracked = append(tracked, st.ID)
		case http.StatusOK: // cache hit: terminal, unjournaled
		default:
			t.Fatalf("seed %d: submit = %d", seed, code)
		}
	}
	same := jobBody(t, "acme", 0, 1)
	submit(same)
	submit(same)
	submit(jobBody(t, "zeta", 2, 3))
	budgeted := fmt.Sprintf(
		`{"tenant":"acme","circuit":{"bench":%q,"name":"tiny"},"tp_levels":[4],"flow":{"skip_atpg":true,"atpg_budget_ms":60000}}`,
		testBench)
	submit([]byte(budgeted))

	if inj.Should("cancel") && len(tracked) > 0 {
		do(t, s1, "DELETE", "/v1/jobs/"+tracked[0], nil)
	}

	killed := inj.Should("kill")
	if killed {
		s1.Kill() // SIGKILL semantics: nothing written after this point
	} else {
		for _, id := range tracked {
			waitTerminal(t, s1, id)
		}
		shutdown(t, s1)
	}
	// Faults on s1's appends can lose records a restart would otherwise
	// see; faults on s2's appends (counted below) can additionally leave
	// stale accepted records behind after the final drain.
	faultsBeforeRestart := s1.Stats().JournalErrors > 0

	// Torn tail: garbage appended to the newest segment simulates a
	// write cut mid-frame by the crash. Recovery must ignore it.
	if inj.Should("garbage") {
		appendGarbageTail(t, dir, seed)
	}

	// Restart. The same injector keeps firing (until its limits) so the
	// recovered jobs can fail levels on the second life too.
	gate := make(chan struct{})
	s2, err := Open(Options{
		Workers: 2, QueueDepth: 16, DataDir: dir,
		journalNoSync: true, journalHook: jhook, replayGate: gate,
	})
	if err != nil {
		t.Fatalf("seed %d: reopen after crash: %v", seed, err)
	}
	s2.runLevel = chaosLevel
	close(gate)
	waitFor(t, func() bool { return s2.Stats().Ready })

	// Invariant 2: with an intact journal every accepted job is visible
	// after restart and reaches a terminal state. A journal whose appends
	// were faulted may legitimately have lost records (availability over
	// durability) — then absence is allowed, double-retirement still not.
	for _, id := range tracked {
		code, _ := do(t, s2, "GET", "/v1/jobs/"+id, nil)
		if code == http.StatusNotFound {
			if !faultsBeforeRestart {
				t.Errorf("seed %d: job %s lost across restart with an intact journal", seed, id)
			}
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %s = %d", seed, id, code)
		}
		waitTerminal(t, s2, id)
	}
	// Read the fault count after the drain: a job turns terminal before
	// its retired record is appended, so that append can still be faulted
	// once waitTerminal has returned.
	shutdown(t, s2)
	journalFaults := faultsBeforeRestart || s2.Stats().JournalErrors > 0

	// Invariants 1, 3, 4 over the journal itself.
	checkJournalInvariants(t, dir, seed, journalFaults)
}

// waitTerminal polls a job to any terminal state (chaos decides which).
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, s, id)
		if st.State.terminal() {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// appendGarbageTail writes seed-derived junk to the end of the newest
// live segment: the torn frame a crash leaves behind.
func appendGarbageTail(t *testing.T, dir string, seed int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return
	}
	sort.Strings(segs)
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	junk := make([]byte, 1+int(seed%37))
	for i := range junk {
		junk[i] = byte(seed>>(uint(i)%8) ^ int64(i)*31)
	}
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
}

// checkJournalInvariants reads the journal (invariant 3: a torn tail
// must not prevent the read) and walks the record stream: at most one
// terminal record per job ID ever (invariant 1), terminal records of
// unknown jobs only when appends were faulted, and — after the final
// clean drain — a fold with zero pending jobs (invariant 4).
func checkJournalInvariants(t *testing.T, dir string, seed int64, journalFaults bool) {
	t.Helper()
	recs, err := journal.Read(dir)
	if err != nil {
		t.Fatalf("seed %d: reading journal after recovery: %v", seed, err)
	}

	pending := map[string]bool{}
	retired := map[string]bool{}
	terminate := func(id string) {
		if retired[id] {
			t.Errorf("seed %d: job %s retired twice", seed, id)
		}
		if !pending[id] && !journalFaults {
			// With intact appends a terminal record always follows its
			// accepted record (or the snapshot holding it).
			t.Errorf("seed %d: terminal record for unknown job %s", seed, id)
		}
		delete(pending, id)
		retired[id] = true
	}
	for _, r := range recs {
		switch r.Type {
		case journal.TypeSnapshot:
			var snap snapState
			if unmarshalRecord(r.Data, &snap) {
				pending, retired = map[string]bool{}, map[string]bool{}
				for _, p := range snap.Pending {
					pending[p.JobID] = true
				}
				for _, rj := range snap.Retired {
					retired[rj.JobID] = true
				}
			}
		case journal.TypeAccepted:
			var rec recAccepted
			if unmarshalRecord(r.Data, &rec) {
				pending[rec.JobID] = true
			}
		case journal.TypeRetired:
			var rec recRetired
			if unmarshalRecord(r.Data, &rec) {
				for _, id := range rec.JobIDs {
					terminate(id)
				}
			}
		case journal.TypeCanceled:
			var rec recCanceled
			if unmarshalRecord(r.Data, &rec) {
				terminate(rec.JobID)
			}
		}
	}

	// Invariant 4: the final server drained cleanly, so nothing may
	// still be owed a run. (A drain retires queued jobs as canceled;
	// journal faults can leave a stale accepted record behind.)
	if len(pending) > 0 && !journalFaults {
		t.Errorf("seed %d: journal still holds pending jobs after a clean drain: %v", seed, pending)
	}

	// Cross-check with the production fold: it must agree.
	if fold := foldRecords(recs); len(fold.Pending) > 0 && !journalFaults {
		t.Errorf("seed %d: foldRecords reports %d pending after drain", seed, len(fold.Pending))
	}
}

func unmarshalRecord(data []byte, v any) bool {
	return json.Unmarshal(data, v) == nil
}
