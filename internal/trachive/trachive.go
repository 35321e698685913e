// Package trachive is tpid's run-history trace archive: when a run
// retires, the service persists its full span trace (gzip NDJSON) and
// its metadata into <data-dir>/runs/. The archive stores runs; it does
// not compare them. Two archived traces are compared offline with
// `tracestat BASE CUR`.
//
// The directory is its own index. On-disk layout:
//
//	<run_id>.trace.ndjson.gz   the run's full event stream
//	<run_id>.pprof             optional per-run CPU profile
//	<run_id>.meta.json         the run's Meta: the commit point
//
// Every file is written by WriteFile (tmp + fsync + rename + directory
// fsync). The meta file is written last
// and removed first (on eviction, and before a re-archived run replaces
// its files), so a crash can leave artifacts without a meta, never a
// meta without its artifacts. Open lists the directory once, loads
// every meta file, and deletes artifacts no meta names and stray .tmp
// files. Retention is budgeted by bytes and run count, evicting oldest
// first but never the newest run.
//
// Builds before this layout indexed the runs in a journal under index/;
// Open folds such an index into meta files once and removes it.
package trachive

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"tpilayout/internal/journal"
	"tpilayout/internal/telemetry"
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
}

// Archive is an open run-history store. Safe for concurrent use.
type Archive struct {
	dir string
	opt Options

	mu      sync.Mutex
	runs    map[string]*Meta
	order   []string // run IDs by ascending Seq (eviction order)
	seq     uint64
	bytes   int64 // summed artifact bytes of retained runs
	evicted int64 // lifetime eviction count (since Open)
	dropped int64 // meta files dropped at Open
}

const (
	traceSuffix   = ".trace.ndjson.gz"
	profileSuffix = ".pprof"
	metaSuffix    = ".meta.json"
)

// Open loads the archive in dir, creating the directory if needed. A
// meta file that does not decode, names another run or has no trace
// file is removed and counted in Stats.Dropped; artifact files no meta
// names (a crash mid-Put or mid-eviction) and .tmp files are deleted.
func Open(dir string, opt Options) (*Archive, error) {
	if opt.BudgetBytes == 0 {
		opt.BudgetBytes = 512 << 20
	}
	if opt.MaxRuns == 0 {
		opt.MaxRuns = 512
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trachive: %w", err)
	}
	if err := foldParentIndex(dir); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trachive: %w", err)
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		names[e.Name()] = true
	}
	a := &Archive{dir: dir, opt: opt, runs: map[string]*Meta{}}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), metaSuffix)
		if !ok {
			continue
		}
		var m Meta
		data, err := os.ReadFile(a.path(id, metaSuffix))
		if err != nil || json.Unmarshal(data, &m) != nil || m.RunID != id || !names[id+traceSuffix] {
			os.Remove(a.path(id, metaSuffix))
			a.dropped++
			continue
		}
		a.runs[id] = &m
		a.order = append(a.order, id)
		a.bytes += m.TraceBytes + m.ProfileBytes
		a.seq = max(a.seq, m.Seq)
	}
	sort.SliceStable(a.order, func(i, j int) bool { return a.runs[a.order[i]].Seq < a.runs[a.order[j]].Seq })
	for _, e := range entries {
		name := e.Name()
		id, ok := strings.CutSuffix(name, traceSuffix)
		if !ok {
			id, ok = strings.CutSuffix(name, profileSuffix)
		}
		if strings.HasSuffix(name, ".tmp") || ok && a.runs[id] == nil {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return a, nil
}

// Builds before the meta files indexed the archive in a journal under
// dir/index: an optional snapshot record holding {"seq", "runs": [Meta]},
// then records of these types.
const (
	parentArchived journal.Type = 10 // payload: JSON Meta
	parentEvicted  journal.Type = 11 // payload: run_id bytes
)

// foldParentIndex writes a meta file for every run a parent build's
// index still lists with its trace on disk, then removes the index. A
// crash part-way leaves the index in place, and the next Open folds it
// again into the same meta files.
func foldParentIndex(dir string) error {
	idx := filepath.Join(dir, "index")
	recs, err := journal.Read(idx)
	if err != nil {
		return fmt.Errorf("trachive: reading parent index: %w", err)
	}
	runs := map[string]*Meta{}
	for _, rec := range recs {
		switch rec.Type {
		case journal.TypeSnapshot:
			var snap struct {
				Runs []*Meta `json:"runs"`
			}
			if json.Unmarshal(rec.Data, &snap) == nil {
				runs = map[string]*Meta{}
				for _, m := range snap.Runs {
					if m != nil {
						runs[m.RunID] = m
					}
				}
			}
		case parentArchived:
			var m Meta
			if json.Unmarshal(rec.Data, &m) == nil {
				runs[m.RunID] = &m
			}
		case parentEvicted:
			delete(runs, string(rec.Data))
		}
	}
	for id, m := range runs {
		if _, err := os.Stat(filepath.Join(dir, id+traceSuffix)); err != nil {
			continue
		}
		data, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("trachive: %w", err)
		}
		if err := WriteFile(filepath.Join(dir, id+metaSuffix), data); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(idx); err != nil {
		return fmt.Errorf("trachive: %w", err)
	}
	return nil
}

func (a *Archive) path(runID, suffix string) string {
	return filepath.Join(a.dir, runID+suffix)
}

// Put archives one run: the gzipped trace, the optional profile beside
// it, then the meta file that commits them. The archive takes ownership
// of meta (Seq and size fields are filled in). A re-archived run_id (a
// crash-replayed run retiring again) first loses its previous entry.
// Retention is enforced before returning.
func (a *Archive) Put(meta *Meta, events []telemetry.Event, profile []byte) error {
	if meta.RunID == "" {
		return fmt.Errorf("trachive: empty run_id")
	}
	a.mu.Lock()
	var err error
	if _, ok := a.runs[meta.RunID]; ok {
		err = a.removeLocked(meta.RunID)
	}
	a.mu.Unlock()
	if err != nil {
		return err
	}

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	enc := json.NewEncoder(gz) // Encode appends the newline NDJSON needs
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("trachive: %w", err)
		}
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("trachive: %w", err)
	}
	if err := WriteFile(a.path(meta.RunID, traceSuffix), buf.Bytes()); err != nil {
		return err
	}
	meta.Events, meta.TraceBytes, meta.ProfileBytes = len(events), int64(buf.Len()), int64(len(profile))
	if len(profile) > 0 {
		if err := WriteFile(a.path(meta.RunID, profileSuffix), profile); err != nil {
			return err
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	meta.Seq = a.seq
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("trachive: %w", err)
	}
	if err := WriteFile(a.path(meta.RunID, metaSuffix), data); err != nil {
		// The artifacts stay on disk with no meta; the next Open deletes them.
		return err
	}
	a.runs[meta.RunID] = meta
	a.order = append(a.order, meta.RunID)
	a.bytes += meta.TraceBytes + meta.ProfileBytes
	return a.enforceRetentionLocked()
}

// WriteFile writes data to path durably: into a fresh .tmp file beside
// it, fsync'd, renamed over path, and the directory fsync'd so that the
// rename itself survives a power loss. A torn write is never visible
// under the final name, and concurrent writers of one path each commit
// a whole file. The service's job and checkpoint files are written the
// same way, so every file of a data dir is.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("trachive: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("trachive: %w", err)
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs a directory, so that the creates, renames and removals
// in it survive a power loss. It is best effort, as the journal's was:
// some filesystems refuse a directory fsync, and there a rename is as
// durable as the filesystem makes it.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// removeLocked deletes one run, its meta file first: a crash part-way
// leaves artifacts without a meta, which the next Open sweeps.
func (a *Archive) removeLocked(runID string) error {
	if err := os.Remove(a.path(runID, metaSuffix)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("trachive: %w", err)
	}
	os.Remove(a.path(runID, traceSuffix))
	os.Remove(a.path(runID, profileSuffix))
	m := a.runs[runID]
	delete(a.runs, runID)
	a.order = slices.DeleteFunc(a.order, func(id string) bool { return id == runID })
	a.bytes -= m.TraceBytes + m.ProfileBytes
	return nil
}

// enforceRetentionLocked evicts oldest-first until both budgets hold,
// always keeping the newest run: a single oversized run is better
// retained than an empty archive.
func (a *Archive) enforceRetentionLocked() error {
	for len(a.order) > 1 &&
		((a.opt.MaxRuns > 0 && len(a.order) > a.opt.MaxRuns) ||
			(a.opt.BudgetBytes > 0 && a.bytes > a.opt.BudgetBytes)) {
		if err := a.removeLocked(a.order[0]); err != nil {
			return err
		}
		a.evicted++
	}
	return nil
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
	return os.Open(a.path(runID, traceSuffix))
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
	return os.Open(a.path(runID, profileSuffix))
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

// Close is a no-op: every Put is durable when it returns, and the
// archive holds no open file.
func (a *Archive) Close() error { return nil }
