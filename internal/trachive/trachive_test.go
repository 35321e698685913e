package trachive

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tpilayout/internal/telemetry"
	"tpilayout/internal/tracecmp"
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

func rollupOf(t *testing.T, events []telemetry.Event) *tracecmp.Side {
	t.Helper()
	tr := telemetry.TraceFromEvents(events)
	if !tr.Balanced() {
		t.Fatalf("test events unbalanced: %v", tr.Unbalanced)
	}
	side, err := tracecmp.FromSpans(tr.Spans)
	if err != nil {
		t.Fatalf("FromSpans: %v", err)
	}
	return side
}

func metaFor(runID, key, state string, events []telemetry.Event) *Meta {
	m := &Meta{
		RunID:       runID,
		Tenant:      "t1",
		Circuit:     "c1",
		CircuitHash: "aaaa",
		ConfigHash:  "bbbb",
		BaselineKey: key,
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
	m := metaFor("r1", "k1", "done", events)
	m.Rollup = rollupOf(t, events)
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
		m := metaFor(fmt.Sprintf("r%d", i), "k1", "done", events)
		m.Rollup = rollupOf(t, events)
		if err := a.Put(m, events, nil); err != nil {
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
	// Baseline lookup survives the reopen (Seq order intact).
	base, ok := b.Baseline("k1", 0)
	if !ok || base.RunID != "r2" {
		t.Fatalf("baseline after reopen: %+v ok=%v", base, ok)
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
		if err := a.Put(metaFor(id, "k1", "done", events), events, nil); err != nil {
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
		if err := a.Put(metaFor(fmt.Sprintf("r%d", i), "k1", "done", events), events, nil); err != nil {
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
		if err := a.Put(metaFor(fmt.Sprintf("r%d", i), "k1", "done", events), events, nil); err != nil {
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
	put := func(id, circ, cfg, tenant, state, key string, fin time.Time) {
		m := metaFor(id, key, state, events)
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
	put("r1", "abc123", "cfg111", "alice", "done", "k1", t1)
	put("r2", "abc123", "cfg222", "bob", "failed", "k2", t2)
	put("r3", "def456", "cfg111", "alice", "done", "k3", t2)

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
		{"baseline", Filter{Baseline: "k3"}, []string{"r3"}},
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

func TestBaselineSelection(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	defer a.Close()
	events := runEvents(1, 5e8)
	side := rollupOf(t, events)

	m1 := metaFor("r1", "k1", "done", events)
	m1.Rollup = side
	m2 := metaFor("r2", "k1", "failed", events) // wrong state: never a baseline
	m3 := metaFor("r3", "k1", "done", events)   // done but no rollup
	m4 := metaFor("r4", "k2", "done", events)   // different key
	m4.Rollup = side
	for _, m := range []*Meta{m1, m2, m3, m4} {
		if err := a.Put(m, events, nil); err != nil {
			t.Fatalf("Put %s: %v", m.RunID, err)
		}
	}

	base, ok := a.Baseline("k1", 0)
	if !ok || base.RunID != "r1" {
		t.Fatalf("Baseline(k1): got %+v ok=%v, want r1", base, ok)
	}
	// beforeSeq excludes the candidate itself and everything newer.
	if _, ok := a.Baseline("k1", base.Seq); ok {
		t.Fatal("Baseline(k1, beforeSeq=r1.Seq) should find nothing older")
	}
	if _, ok := a.Baseline("k9", 0); ok {
		t.Fatal("Baseline on unknown key should miss")
	}
}

func TestBaselinesAndRollup(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	defer a.Close()

	fast := runEvents(1, 4e8)
	slow := runEvents(1, 6e8)
	m1 := metaFor("r1", "k1", "done", fast)
	m1.Rollup = rollupOf(t, fast)
	m2 := metaFor("r2", "k1", "done", slow)
	m2.Rollup = rollupOf(t, slow)
	m3 := metaFor("r3", "k2", "failed", slow)
	for _, m := range []*Meta{m1, m2, m3} {
		ev := fast
		if err := a.Put(m, ev, nil); err != nil {
			t.Fatalf("Put %s: %v", m.RunID, err)
		}
	}

	bs := a.Baselines()
	if len(bs) != 2 {
		t.Fatalf("Baselines: %d keys, want 2", len(bs))
	}
	if bs[0].Key != "k1" || bs[0].Runs != 2 || bs[0].Completed != 2 || bs[0].Latest != "r2" {
		t.Fatalf("k1 info: %+v", bs[0])
	}
	if bs[1].Key != "k2" || bs[1].Completed != 0 {
		t.Fatalf("k2 info: %+v", bs[1])
	}

	cells := a.Rollup("k1")
	if len(cells) == 0 {
		t.Fatal("Rollup(k1) empty")
	}
	var tpi *RollupCell
	for i := range cells {
		if cells[i].Stage == "tpi" {
			tpi = &cells[i]
		}
	}
	if tpi == nil || tpi.Runs != 2 {
		t.Fatalf("tpi cell: %+v", tpi)
	}
	// Mean of 4e8 and 6e8 is 5e8; quantile estimates are bucketed, so
	// only sanity-check the mean.
	if tpi.MeanNS != 5e8 {
		t.Fatalf("tpi mean: %g want 5e8", tpi.MeanNS)
	}
	if tpi.P50NS <= 0 || tpi.P99NS < tpi.P50NS {
		t.Fatalf("tpi quantiles: p50=%g p99=%g", tpi.P50NS, tpi.P99NS)
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
		m := metaFor(fmt.Sprintf("r%d", i), "k1", "done", events)
		m.Rollup = rollupOf(t, events)
		if err := a.Put(m, events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	a.Close()

	b := openT(t, dir)
	defer b.Close()
	if st := b.Stats(); st.Runs != 5 {
		t.Fatalf("after compacted reopen: %+v", st)
	}
	base, ok := b.Baseline("k1", 0)
	if !ok || base.RunID != "r4" || base.Rollup == nil {
		t.Fatalf("baseline after compaction: %+v ok=%v", base, ok)
	}
}

// TestReplacedRun: a crash-replayed run retiring again replaces its
// previous entry instead of double-counting bytes.
func TestReplacedRun(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	defer a.Close()
	events := runEvents(1, 5e8)
	if err := a.Put(metaFor("r1", "k1", "done", events), events, []byte("prof")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	first := a.Stats()
	// Re-archive the same run_id, this time without a profile.
	if err := a.Put(metaFor("r1", "k1", "done", events), events, nil); err != nil {
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
