package trachive

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tpilayout/internal/telemetry"
)

// runEvents builds a minimal balanced run trace: one run span at tp
// with one tpi stage child.
func runEvents(tp float64, stageNS int64) []telemetry.Event {
	t0 := time.Unix(0, 0)
	return []telemetry.Event{
		{Type: telemetry.EventSpanStart, ID: 1, Stage: "run", TPPercent: tp, Time: t0},
		{Type: telemetry.EventSpanStart, ID: 2, Parent: 1, Stage: "tpi", TPPercent: tp, Time: t0},
		{Type: telemetry.EventSpanEnd, ID: 2, Parent: 1, Stage: "tpi", TPPercent: tp, Time: t0, DurNS: stageNS, CPUNS: stageNS / 2},
		{Type: telemetry.EventSpanEnd, ID: 1, Stage: "run", TPPercent: tp, Time: t0, DurNS: 2 * stageNS},
	}
}

func metaFor(runID, state string) *Meta {
	m := &Meta{
		RunID:       runID,
		Tenant:      "t1",
		Circuit:     "c1",
		CircuitHash: "aaaa",
		ConfigHash:  "bbbb",
		State:       state,
		Started:     time.Unix(100, 0),
		Finished:    time.Unix(101, 0),
	}
	return m
}

func openT(t *testing.T, dir string) *Archive {
	t.Helper()
	a, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return a
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	defer a.Close()

	events := runEvents(1, 5e8)
	m := metaFor("r1", "done")
	profile := []byte("pprof-bytes")
	if err := a.Put(m, events, profile); err != nil {
		t.Fatalf("Put: %v", err)
	}

	got, ok := a.Get("r1")
	if !ok {
		t.Fatal("Get r1: not found")
	}
	if got.Events != len(events) || got.TraceBytes == 0 || got.ProfileBytes != int64(len(profile)) {
		t.Fatalf("meta sizes: events=%d trace=%d profile=%d", got.Events, got.TraceBytes, got.ProfileBytes)
	}

	// The archived trace is valid gzip NDJSON that parses balanced.
	f, err := a.OpenTrace("r1")
	if err != nil {
		t.Fatalf("OpenTrace: %v", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("not gzip: %v", err)
	}
	tr, err := telemetry.ParseTrace(gz)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if !tr.Balanced() || len(tr.Events) != len(events) {
		t.Fatalf("parsed trace: balanced=%v events=%d want %d", tr.Balanced(), len(tr.Events), len(events))
	}

	pf, err := a.OpenProfile("r1")
	if err != nil {
		t.Fatalf("OpenProfile: %v", err)
	}
	buf := make([]byte, len(profile)+1)
	n, _ := pf.Read(buf)
	pf.Close()
	if string(buf[:n]) != string(profile) {
		t.Fatalf("profile bytes: got %q", buf[:n])
	}

	if _, err := a.OpenProfile("r-none"); !os.IsNotExist(err) {
		t.Fatalf("OpenProfile missing run: err=%v", err)
	}
}

// TestRecoverWithoutClose simulates a SIGKILL: the first archive is
// abandoned (no Close, journal not compacted) and a fresh Open on the
// same directory must recover every archived run.
func TestRecoverWithoutClose(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	events := runEvents(1, 5e8)
	for i := 0; i < 3; i++ {
		if err := a.Put(metaFor(fmt.Sprintf("r%d", i), "done"), events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// No Close: drop the handle like a killed process would.

	b := openT(t, dir)
	defer b.Close()
	for i := 0; i < 3; i++ {
		if _, ok := b.Get(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("run r%d lost across reopen", i)
		}
	}
	if st := b.Stats(); st.Runs != 3 || st.Dropped != 0 {
		t.Fatalf("stats after reopen: %+v", st)
	}
	// Seq order survives the reopen: the newest run lists first.
	if runs := b.List(Filter{}); len(runs) != 3 || runs[0].RunID != "r2" {
		t.Fatalf("list after reopen: %+v", runs)
	}
}

// TestReopenDropsTornEntries: an index entry whose trace file vanished
// (crash between eviction's unlink and its index append) is dropped at
// Open, and unreferenced artifact files are deleted as orphans.
func TestReopenDropsTornEntries(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	events := runEvents(1, 5e8)
	for _, id := range []string{"r1", "r2"} {
		if err := a.Put(metaFor(id, "done"), events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Tear r1: remove its trace file behind the archive's back.
	os.Remove(filepath.Join(dir, "r1"+traceSuffix))
	// Plant an orphan trace, an orphan profile, and a stale temp file.
	os.WriteFile(filepath.Join(dir, "ghost"+traceSuffix), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "ghost"+profileSuffix), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "r9"+traceSuffix+".tmp"), []byte("x"), 0o644)

	b := openT(t, dir)
	defer b.Close()
	if _, ok := b.Get("r1"); ok {
		t.Fatal("torn r1 still served")
	}
	if _, ok := b.Get("r2"); !ok {
		t.Fatal("intact r2 lost")
	}
	st := b.Stats()
	if st.Runs != 1 || st.Dropped != 1 {
		t.Fatalf("stats: %+v", st)
	}
	for _, name := range []string{"ghost" + traceSuffix, "ghost" + profileSuffix, "r9" + traceSuffix + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s not cleaned", name)
		}
	}
}

func TestRetentionByCount(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{NoSync: true, MaxRuns: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer a.Close()
	events := runEvents(1, 5e8)
	for i := 0; i < 4; i++ {
		if err := a.Put(metaFor(fmt.Sprintf("r%d", i), "done"), events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Oldest-first eviction: r0 and r1 are gone, r2 and r3 retained.
	for i, want := range []bool{false, false, true, true} {
		_, ok := a.Get(fmt.Sprintf("r%d", i))
		if ok != want {
			t.Fatalf("r%d retained=%v want %v", i, ok, want)
		}
	}
	// Evicted runs' files are removed from disk.
	if _, err := os.Stat(filepath.Join(dir, "r0"+traceSuffix)); !os.IsNotExist(err) {
		t.Fatal("evicted r0 trace still on disk")
	}
	if st := a.Stats(); st.Runs != 2 || st.Evicted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRetentionByBytesKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	// A budget smaller than any single trace: every Put evicts its
	// predecessor, but the newest run always survives.
	a, err := Open(dir, Options{NoSync: true, BudgetBytes: 1, MaxRuns: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer a.Close()
	events := runEvents(1, 5e8)
	for i := 0; i < 3; i++ {
		if err := a.Put(metaFor(fmt.Sprintf("r%d", i), "done"), events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
		st := a.Stats()
		if st.Runs != 1 {
			t.Fatalf("after put %d: runs=%d want 1", i, st.Runs)
		}
		if _, ok := a.Get(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("newest r%d evicted", i)
		}
	}
}

func TestListFilters(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	defer a.Close()
	events := runEvents(1, 5e8)
	put := func(id, circ, cfg, tenant, state string, fin time.Time) {
		m := metaFor(id, state)
		m.CircuitHash = circ
		m.ConfigHash = cfg
		m.Tenant = tenant
		m.Finished = fin
		if err := a.Put(m, events, nil); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	t1 := time.Unix(1000, 0)
	t2 := time.Unix(2000, 0)
	put("r1", "abc123", "cfg111", "alice", "done", t1)
	put("r2", "abc123", "cfg222", "bob", "failed", t2)
	put("r3", "def456", "cfg111", "alice", "done", t2)

	cases := []struct {
		name string
		f    Filter
		want []string // newest first
	}{
		{"all", Filter{}, []string{"r3", "r2", "r1"}},
		{"circuit prefix", Filter{Circuit: "abc"}, []string{"r2", "r1"}},
		{"config prefix", Filter{Config: "cfg111"}, []string{"r3", "r1"}},
		{"tenant", Filter{Tenant: "alice"}, []string{"r3", "r1"}},
		{"state", Filter{State: "failed"}, []string{"r2"}},
		{"since", Filter{Since: time.Unix(1500, 0)}, []string{"r3", "r2"}},
		{"limit", Filter{Limit: 2}, []string{"r3", "r2"}},
		{"combo", Filter{Circuit: "abc", Tenant: "alice"}, []string{"r1"}},
	}
	for _, tc := range cases {
		got := a.List(tc.f)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %d runs, want %d", tc.name, len(got), len(tc.want))
		}
		for i, m := range got {
			if m.RunID != tc.want[i] {
				t.Fatalf("%s[%d]: got %s want %s", tc.name, i, m.RunID, tc.want[i])
			}
		}
	}
}

// TestCompaction: enough Puts to cross CompactBytes fold the index into
// a snapshot, and a reopen on the compacted index still sees every run.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{NoSync: true, CompactBytes: 1}) // compact after every Put
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	events := runEvents(1, 5e8)
	for i := 0; i < 5; i++ {
		if err := a.Put(metaFor(fmt.Sprintf("r%d", i), "done"), events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	a.Close()

	b := openT(t, dir)
	defer b.Close()
	if st := b.Stats(); st.Runs != 5 {
		t.Fatalf("after compacted reopen: %+v", st)
	}
	if runs := b.List(Filter{}); len(runs) != 5 || runs[0].RunID != "r4" {
		t.Fatalf("list after compaction: %+v", runs)
	}
}

// TestReplacedRun: a crash-replayed run retiring again replaces its
// previous entry instead of double-counting bytes.
func TestReplacedRun(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	defer a.Close()
	events := runEvents(1, 5e8)
	if err := a.Put(metaFor("r1", "done"), events, []byte("prof")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	first := a.Stats()
	// Re-archive the same run_id, this time without a profile.
	if err := a.Put(metaFor("r1", "done"), events, nil); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	st := a.Stats()
	if st.Runs != 1 {
		t.Fatalf("runs=%d want 1", st.Runs)
	}
	if st.Bytes >= first.Bytes {
		t.Fatalf("bytes not rebased: first=%d now=%d (profile should be gone)", first.Bytes, st.Bytes)
	}
	if _, err := a.OpenProfile("r1"); !os.IsNotExist(err) {
		t.Fatalf("stale profile survived replacement: %v", err)
	}
}
