package trachive

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tpilayout/internal/journal"
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

func openT(t testing.TB, dir string) *Archive {
	t.Helper()
	a, err := Open(dir, Options{})
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
// abandoned without Close, and a fresh Open on the same directory must
// recover every archived run.
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

// TestReopenDropsTornEntries: a meta file whose trace vanished (an
// operator rm, a disk loss), one that does not decode and one that names
// another run are dropped at Open; artifact files no meta names, and
// temp files, are deleted as orphans.
func TestReopenDropsTornEntries(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	events := runEvents(1, 5e8)
	for _, id := range []string{"r1", "r2"} {
		if err := a.Put(metaFor(id, "done"), events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Tear r1: remove its trace file behind the archive's back.
	os.Remove(filepath.Join(dir, "r1"+traceSuffix))
	// A meta that does not decode, and one holding r2's meta under
	// another run's name, each beside a trace.
	r2meta, err := os.ReadFile(filepath.Join(dir, "r2"+metaSuffix))
	if err != nil {
		t.Fatal(err)
	}
	write("junk"+metaSuffix, []byte("{"))
	write("junk"+traceSuffix, []byte("x"))
	write("alias"+metaSuffix, r2meta)
	write("alias"+traceSuffix, []byte("x"))
	// Plant an orphan trace, an orphan profile, and a stale temp file.
	write("ghost"+traceSuffix, []byte("x"))
	write("ghost"+profileSuffix, []byte("x"))
	write("r9"+traceSuffix+".tmp", []byte("x"))

	b := openT(t, dir)
	defer b.Close()
	if _, ok := b.Get("r1"); ok {
		t.Fatal("torn r1 still served")
	}
	if _, ok := b.Get("r2"); !ok {
		t.Fatal("intact r2 lost")
	}
	st := b.Stats()
	if st.Runs != 1 || st.Dropped != 3 {
		t.Fatalf("stats: %+v", st)
	}
	for _, id := range []string{"r1", "junk", "alias", "ghost"} {
		for _, suffix := range []string{metaSuffix, traceSuffix, profileSuffix} {
			if _, err := os.Stat(filepath.Join(dir, id+suffix)); !os.IsNotExist(err) {
				t.Errorf("%s%s not cleaned", id, suffix)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "r9"+traceSuffix+".tmp")); !os.IsNotExist(err) {
		t.Error("temp file not cleaned")
	}
}

func TestRetentionByCount(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{MaxRuns: 2})
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
	a, err := Open(dir, Options{BudgetBytes: 1, MaxRuns: -1})
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

// TestOpenFoldsParentIndex: a directory whose runs a parent build
// indexed in a journal (a snapshot, then archived and evicted records)
// opens with the runs that index still listed, in the same order, and
// without the journal; the sequence carries on from the folded runs.
func TestOpenFoldsParentIndex(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	events := runEvents(1, 5e8)
	var metas []*Meta
	for i := 0; i < 3; i++ {
		m := metaFor(fmt.Sprintf("r%d", i), "done")
		if err := a.Put(m, events, nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
		metas = append(metas, m)
		os.Remove(filepath.Join(dir, m.RunID+metaSuffix))
	}
	idx, _, err := journal.Open(filepath.Join(dir, "index"), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := json.Marshal(map[string]any{"seq": 2, "runs": metas[:2]})
	r2, _ := json.Marshal(metas[2])
	if err := idx.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if err := idx.Append(parentArchived, r2); err != nil {
		t.Fatal(err)
	}
	if err := idx.Append(parentEvicted, []byte("r0")); err != nil {
		t.Fatal(err)
	}
	idx.Close()

	b := openT(t, dir)
	if runs := b.List(Filter{}); len(runs) != 2 || runs[0].RunID != "r2" || runs[1].RunID != "r1" {
		t.Fatalf("list after the fold: %+v", runs)
	}
	for _, name := range []string{"index", "r0" + traceSuffix} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived the fold", name)
		}
	}
	m := metaFor("r3", "done")
	if err := b.Put(m, events, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if m.Seq <= metas[2].Seq {
		t.Fatalf("new run seq %d, folded runs end at %d", m.Seq, metas[2].Seq)
	}
	if runs := openT(t, dir).List(Filter{}); len(runs) != 3 || runs[0].RunID != "r3" {
		t.Fatalf("list after a reopen: %+v", runs)
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

// FuzzArchiveOpen: meta files are bytes read back from disk. Arbitrary
// bytes as one run's meta file, beside one intact run, must never make
// Open fail or panic, and never cost the intact run. The seed is a real
// Put's meta.
func FuzzArchiveOpen(f *testing.F) {
	src := f.TempDir()
	a := openT(f, src)
	for _, id := range []string{"good", "fz"} {
		if err := a.Put(metaFor(id, "done"), runEvents(1, 5e8), nil); err != nil {
			f.Fatal(err)
		}
	}
	files := map[string][]byte{}
	for _, name := range []string{"good" + traceSuffix, "good" + metaSuffix, "fz" + traceSuffix, "fz" + metaSuffix} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			f.Fatal(err)
		}
		files[name] = data
	}
	f.Add(files["fz"+metaSuffix])
	f.Add(files["good"+metaSuffix])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for name, b := range files {
			if name == "fz"+metaSuffix {
				b = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		b, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var listed bool
		for _, m := range b.List(Filter{}) {
			listed = listed || m.RunID == "good"
		}
		if _, ok := b.Get("good"); !ok || !listed {
			t.Fatalf("intact run lost: listed=%v, stats %+v", listed, b.Stats())
		}
	})
}
