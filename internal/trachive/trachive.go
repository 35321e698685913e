// Package trachive is tpid's run-history trace archive: when a run
// retires, the service persists its full span trace (gzip NDJSON) and
// its metadata into <data-dir>/runs/, indexed by a crash-safe journal
// (internal/journal) so a SIGKILL between the trace write and the index
// append costs at most that one run. The archive stores runs; it does
// not compare them. Two archived traces are compared offline with
// `tracestat BASE CUR`.
//
// On-disk layout under the archive directory:
//
//	index/            journal of archived/evicted records + snapshots
//	<run_id>.trace.ndjson.gz   the run's full event stream
//	<run_id>.pprof             optional per-run CPU profile
//
// Artifact files are written tmp+rename before the index append, so
// the journal never references a torn file; conversely an artifact
// whose index append was lost is an orphan and Open deletes it.
// Retention is budgeted by bytes and run count, evicting oldest first
// but never the newest run.
package trachive

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tpilayout/internal/journal"
	"tpilayout/internal/telemetry"
)

// Journal record types private to the archive index (the journal treats
// payloads as opaque; types 1–5 belong to the service's job journal).
const (
	typeArchived journal.Type = 10 // payload: JSON Meta
	typeEvicted  journal.Type = 11 // payload: run_id bytes
)

// Meta is one archived run's metadata — everything the query API can
// filter or report without opening the trace file. Index records written
// by older builds also carry "baseline_key", "rollup" and "diff" fields;
// decoding ignores them.
type Meta struct {
	RunID        string    `json:"run_id"`
	JobIDs       []string  `json:"job_ids,omitempty"`
	Tenant       string    `json:"tenant,omitempty"`
	Circuit      string    `json:"circuit,omitempty"`
	CircuitHash  string    `json:"circuit_hash"`
	ConfigHash   string    `json:"config_hash"`
	State        string    `json:"state"`
	Error        string    `json:"error,omitempty"`
	TPLevels     []float64 `json:"tp_levels,omitempty"`
	Started      time.Time `json:"started"`
	Finished     time.Time `json:"finished"`
	WallMS       int64     `json:"wall_ms"`
	CPUMS        int64     `json:"cpu_ms,omitempty"`
	Events       int       `json:"events,omitempty"`
	TraceBytes   int64     `json:"trace_bytes"`
	ProfileBytes int64     `json:"profile_bytes,omitempty"`
	// Seq is the archive-order sequence number (assigned at Put); higher
	// is newer. List order and eviction order ride on it.
	Seq uint64 `json:"seq"`
}

// Options configures an Archive.
type Options struct {
	// BudgetBytes caps the summed size of archived artifacts; 0 means
	// 512 MiB, negative disables the byte budget.
	BudgetBytes int64
	// MaxRuns caps the number of retained runs; 0 means 512, negative
	// disables the count budget.
	MaxRuns int
	// NoSync skips index fsyncs (tests only).
	NoSync bool
	// CompactBytes is the index-size threshold that triggers snapshot
	// compaction (default 1 MiB).
	CompactBytes int64
}

// Archive is an open run-history store. Safe for concurrent use.
type Archive struct {
	dir string
	opt Options

	mu      sync.Mutex
	jrnl    *journal.Journal
	runs    map[string]*Meta
	order   []string // run IDs by ascending Seq (eviction order)
	seq     uint64
	bytes   int64 // summed artifact bytes of retained runs
	evicted int64 // lifetime eviction count (since Open)
	dropped int64 // index entries dropped at Open for missing files
}

// snapState is the index snapshot written at compaction.
type snapState struct {
	Seq  uint64  `json:"seq"`
	Runs []*Meta `json:"runs"`
}

// Open replays the archive index in dir (creating the directory if
// needed), drops entries whose trace file is missing (a crash between
// eviction's file removal and its index append), and deletes orphaned
// artifact files the index does not reference (a crash between an
// artifact write and its index append).
func Open(dir string, opt Options) (*Archive, error) {
	if opt.BudgetBytes == 0 {
		opt.BudgetBytes = 512 << 20
	}
	if opt.MaxRuns == 0 {
		opt.MaxRuns = 512
	}
	if opt.CompactBytes <= 0 {
		opt.CompactBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trachive: %w", err)
	}
	jrnl, records, err := journal.Open(filepath.Join(dir, "index"), journal.Options{NoSync: opt.NoSync})
	if err != nil {
		return nil, fmt.Errorf("trachive: %w", err)
	}
	a := &Archive{dir: dir, opt: opt, jrnl: jrnl, runs: map[string]*Meta{}}
	for _, rec := range records {
		switch rec.Type {
		case journal.TypeSnapshot:
			var st snapState
			if err := json.Unmarshal(rec.Data, &st); err != nil {
				jrnl.Close()
				return nil, fmt.Errorf("trachive: corrupt snapshot: %w", err)
			}
			a.runs = map[string]*Meta{}
			a.seq = st.Seq
			for _, m := range st.Runs {
				a.runs[m.RunID] = m
			}
		case typeArchived:
			var m Meta
			if err := json.Unmarshal(rec.Data, &m); err != nil {
				jrnl.Close()
				return nil, fmt.Errorf("trachive: corrupt index record: %w", err)
			}
			a.runs[m.RunID] = &m
			if m.Seq > a.seq {
				a.seq = m.Seq
			}
		case typeEvicted:
			delete(a.runs, string(rec.Data))
		}
	}
	// An index entry whose trace file is gone cannot be served: drop it.
	for id := range a.runs {
		if _, err := os.Stat(a.tracePath(id)); err != nil {
			delete(a.runs, id)
			a.dropped++
		}
	}
	a.rebuildOrderLocked()
	// Artifact files the index does not reference are orphans from a
	// crash mid-Put (or temp files): delete them.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			var id string
			switch {
			case strings.HasSuffix(name, ".tmp"):
				os.Remove(filepath.Join(dir, name))
				continue
			case strings.HasSuffix(name, traceSuffix):
				id = strings.TrimSuffix(name, traceSuffix)
			case strings.HasSuffix(name, profileSuffix):
				id = strings.TrimSuffix(name, profileSuffix)
			default:
				continue
			}
			if _, ok := a.runs[id]; !ok {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
	return a, nil
}

const (
	traceSuffix   = ".trace.ndjson.gz"
	profileSuffix = ".pprof"
)

func (a *Archive) tracePath(runID string) string {
	return filepath.Join(a.dir, runID+traceSuffix)
}

func (a *Archive) profilePath(runID string) string {
	return filepath.Join(a.dir, runID+profileSuffix)
}

// rebuildOrderLocked recomputes eviction order and the byte total from
// the live run set.
func (a *Archive) rebuildOrderLocked() {
	a.order = a.order[:0]
	a.bytes = 0
	for id, m := range a.runs {
		a.order = append(a.order, id)
		a.bytes += m.TraceBytes + m.ProfileBytes
	}
	sort.Slice(a.order, func(i, j int) bool { return a.runs[a.order[i]].Seq < a.runs[a.order[j]].Seq })
}

// Put archives one run: the trace is gzipped to disk, the optional
// profile written beside it, and the meta appended to the index — in
// that order, so the index never references a missing file. The
// archive takes ownership of meta (Seq and size fields are filled in).
// A re-archived run_id (a crash-replayed run retiring again) replaces
// its previous entry. Retention is enforced before returning.
func (a *Archive) Put(meta *Meta, events []telemetry.Event, profile []byte) error {
	if meta.RunID == "" {
		return fmt.Errorf("trachive: empty run_id")
	}
	n, err := a.writeTrace(meta.RunID, events)
	if err != nil {
		return err
	}
	meta.Events = len(events)
	meta.TraceBytes = n
	meta.ProfileBytes = 0
	if len(profile) > 0 {
		if err := writeFileDurable(a.profilePath(meta.RunID), profile); err != nil {
			return err
		}
		meta.ProfileBytes = int64(len(profile))
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.runs[meta.RunID]; ok && meta.ProfileBytes == 0 {
		// The replacement has no profile: drop the stale one.
		os.Remove(a.profilePath(meta.RunID))
	}
	a.seq++
	meta.Seq = a.seq
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("trachive: %w", err)
	}
	if err := a.jrnl.Append(typeArchived, data); err != nil {
		// The artifact stays on disk as an orphan; the next Open cleans
		// it up. The in-memory index stays consistent with the journal.
		return err
	}
	_, existed := a.runs[meta.RunID]
	a.runs[meta.RunID] = meta
	if existed {
		// The fresh Seq moves the replaced entry to the tail; the byte
		// total is recomputed over the new entry set.
		a.rebuildOrderLocked()
	} else {
		a.order = append(a.order, meta.RunID)
		a.bytes += meta.TraceBytes + meta.ProfileBytes
	}
	if err := a.enforceRetentionLocked(); err != nil {
		return err
	}
	if a.jrnl.Size() >= a.opt.CompactBytes {
		a.compactLocked()
	}
	return nil
}

// writeTrace streams events as gzip NDJSON via tmp+rename.
func (a *Archive) writeTrace(runID string, events []telemetry.Event) (int64, error) {
	tmp := a.tracePath(runID) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("trachive: %w", err)
	}
	gz := gzip.NewWriter(f)
	enc := json.NewEncoder(gz) // Encode appends the newline NDJSON needs
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			f.Close()
			os.Remove(tmp)
			return 0, fmt.Errorf("trachive: %w", err)
		}
	}
	if err := gz.Close(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("trachive: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("trachive: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("trachive: %w", err)
	}
	fi, err := os.Stat(tmp)
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("trachive: %w", err)
	}
	if err := os.Rename(tmp, a.tracePath(runID)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("trachive: %w", err)
	}
	return fi.Size(), nil
}

func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("trachive: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("trachive: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("trachive: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trachive: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trachive: %w", err)
	}
	return nil
}

// enforceRetentionLocked evicts oldest-first until both budgets hold,
// always keeping the newest run: a single oversized run is better
// retained than an empty archive.
func (a *Archive) enforceRetentionLocked() error {
	for len(a.order) > 1 {
		over := (a.opt.MaxRuns > 0 && len(a.order) > a.opt.MaxRuns) ||
			(a.opt.BudgetBytes > 0 && a.bytes > a.opt.BudgetBytes)
		if !over {
			return nil
		}
		id := a.order[0]
		m := a.runs[id]
		// Files first, index second: a crash in between leaves an index
		// entry with a missing file, which Open drops — never a live
		// entry pointing at freed space that retention still counts.
		os.Remove(a.tracePath(id))
		os.Remove(a.profilePath(id))
		if err := a.jrnl.Append(typeEvicted, []byte(id)); err != nil {
			return err
		}
		a.order = a.order[1:]
		a.bytes -= m.TraceBytes + m.ProfileBytes
		delete(a.runs, id)
		a.evicted++
	}
	return nil
}

// compactLocked folds the index into one snapshot record; best effort
// (a failed compaction leaves the segments in place).
func (a *Archive) compactLocked() {
	st := snapState{Seq: a.seq, Runs: make([]*Meta, 0, len(a.order))}
	for _, id := range a.order {
		st.Runs = append(st.Runs, a.runs[id])
	}
	if data, err := json.Marshal(&st); err == nil {
		a.jrnl.Compact(data)
	}
}

// Get returns the archived meta for one run.
func (a *Archive) Get(runID string) (*Meta, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.runs[runID]
	return m, ok
}

// OpenTrace opens the archived gzip NDJSON trace for streaming.
func (a *Archive) OpenTrace(runID string) (*os.File, error) {
	a.mu.Lock()
	_, ok := a.runs[runID]
	a.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	return os.Open(a.tracePath(runID))
}

// OpenProfile opens the archived per-run CPU profile, os.ErrNotExist
// when the run was archived without one.
func (a *Archive) OpenProfile(runID string) (*os.File, error) {
	a.mu.Lock()
	m, ok := a.runs[runID]
	a.mu.Unlock()
	if !ok || m.ProfileBytes == 0 {
		return nil, os.ErrNotExist
	}
	return os.Open(a.profilePath(runID))
}

// Filter selects archived runs. Hash fields match by prefix so clients
// can use the short forms the API reports.
type Filter struct {
	Circuit string    // circuit hash prefix
	Config  string    // config hash prefix
	Tenant  string    // exact tenant
	State   string    // exact terminal state
	Since   time.Time // runs finished at/after this instant
	Limit   int       // max results (0 = all)
}

func (f Filter) match(m *Meta) bool {
	if f.Circuit != "" && !strings.HasPrefix(m.CircuitHash, f.Circuit) {
		return false
	}
	if f.Config != "" && !strings.HasPrefix(m.ConfigHash, f.Config) {
		return false
	}
	if f.Tenant != "" && m.Tenant != f.Tenant {
		return false
	}
	if f.State != "" && m.State != f.State {
		return false
	}
	if !f.Since.IsZero() && m.Finished.Before(f.Since) {
		return false
	}
	return true
}

// List returns matching runs, newest first.
func (a *Archive) List(f Filter) []*Meta {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := []*Meta{} // never nil: an empty list renders as [] in JSON
	for i := len(a.order) - 1; i >= 0; i-- {
		m := a.runs[a.order[i]]
		if !f.match(m) {
			continue
		}
		out = append(out, m)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Stats reports the archive's retention state.
type Stats struct {
	Runs    int   `json:"runs"`
	Bytes   int64 `json:"bytes"`
	Evicted int64 `json:"evicted"`
	Dropped int64 `json:"dropped"`
}

// Stats returns current retention counters.
func (a *Archive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Runs: len(a.order), Bytes: a.bytes, Evicted: a.evicted, Dropped: a.dropped}
}

// Close closes the index journal. Artifact files need no teardown.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.jrnl.Close()
}
