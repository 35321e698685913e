// Package journal is tpid's durable job journal: an append-only log of
// length-prefixed, CRC32C-framed records, fsync'd per append, with
// segment rotation and compacting snapshots.
//
// Record framing (all integers little-endian):
//
//	[u32 length][u32 crc32c][u8 type][payload …]
//
// where length = 1 + len(payload) and the CRC covers the type byte plus
// the payload. A record is valid only when its frame is complete and the
// CRC matches; replay stops at the first invalid frame, so a crash that
// tears the final append (partial write, lost fsync) costs exactly that
// one record — every complete record before it is recovered, and Open
// truncates the torn tail away so later appends extend a clean prefix.
//
// The log lives in a directory of numbered segment files
// (seg-NNNNNNNN.wal). Appends rotate to a fresh segment past a size
// threshold; the previous segment is fsync'd before the next one opens,
// so only the newest segment can ever carry a torn tail. Compact
// collapses everything written so far into a single snapshot record
// (snap-NNNNNNNN.snap, written atomically via rename) and deletes the
// segments it covers; Open replays the newest valid snapshot first,
// then the segments after it, in order.
//
// Fault injection for tests rides Options.Hook: it is consulted before
// every write, fsync, rotation, and snapshot, and returning an error
// fails that operation exactly as a bad disk would.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Type tags a record with its meaning. The journal itself treats
// payloads as opaque bytes; the service's job journal defines the
// schemas of types 1–5. Types 10 and 11 were the run archive's index in
// earlier builds; internal/trachive reads them only to fold such an
// index into its meta files.
type Type uint8

const (
	// TypeSnapshot is a compacted state image; at most one leads a replay.
	TypeSnapshot Type = 1
	// TypeAccepted records a job accepted into the queue.
	TypeAccepted Type = 2
	// TypeLevelDone checkpoints one completed sweep level.
	TypeLevelDone Type = 3
	// TypeRetired records one run's jobs reaching a terminal state.
	TypeRetired Type = 4
	// TypeCanceled records a single job canceled by its client or
	// refused by the queue. Earlier builds wrote it; replay still reads it.
	TypeCanceled Type = 5
)

// Op names a journal operation for the fault-injection hook.
type Op string

const (
	OpAppend   Op = "append"
	OpFsync    Op = "fsync"
	OpRotate   Op = "rotate"
	OpSnapshot Op = "snapshot"
)

// Record is one replayed journal entry.
type Record struct {
	Type Type
	Data []byte
}

// Options configures a Journal.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB): an append
	// that pushes the active segment past it opens a fresh segment.
	SegmentBytes int64
	// NoSync skips the per-append fsync (tests only; production appends
	// are durable before Append returns).
	NoSync bool
	// Hook, when non-nil, is consulted before each operation; a non-nil
	// return fails the operation (fault injection).
	Hook func(op Op) error
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

const (
	headerBytes    = 8
	maxRecordBytes = 64 << 20 // sanity bound on the length prefix
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Journal is an open, appendable log. Safe for concurrent use.
type Journal struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File
	seq     uint64 // active segment number
	size    int64  // active segment size
	total   int64  // bytes across all live segments
	appends int64  // records appended since Open
	closed  bool
}

// Open replays the journal in dir (creating it if needed) and returns
// the recovered records in append order — the newest valid snapshot
// first (as a TypeSnapshot record), then every complete record after
// it. A torn tail on the newest segment is truncated away; a torn or
// corrupt frame in the middle of the sequence (which fsync-before-
// rotate makes impossible short of disk corruption) is an error.
func Open(dir string, opt Options) (*Journal, []Record, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	var records []Record
	var snapSeq uint64
	// Newest snapshot whose frame validates wins; older ones (and any
	// .tmp left by a crashed Compact) are garbage-collected below.
	for i := len(snaps) - 1; i >= 0; i-- {
		if data, ok := readSnapshot(filepath.Join(dir, snapName(snaps[i]))); ok {
			snapSeq = snaps[i]
			records = append(records, Record{Type: TypeSnapshot, Data: data})
			break
		}
	}

	j := &Journal{dir: dir, opt: opt}
	var live []uint64
	for _, seq := range segs {
		if seq <= snapSeq {
			os.Remove(filepath.Join(dir, segName(seq))) // covered by the snapshot
			continue
		}
		live = append(live, seq)
	}
	for _, seq := range snaps {
		if seq < snapSeq {
			os.Remove(filepath.Join(dir, snapName(seq)))
		}
	}
	removeTemps(dir)

	var lastSize int64
	for i, seq := range live {
		path := filepath.Join(dir, segName(seq))
		recs, valid, total, rerr := readSegment(path)
		if rerr != nil {
			return nil, nil, rerr
		}
		if valid < total && i < len(live)-1 {
			return nil, nil, fmt.Errorf("journal: segment %s torn at byte %d but later segments exist", segName(seq), valid)
		}
		if valid < total {
			// Torn tail on the newest segment: cut it back to the last
			// complete record so future appends extend a clean prefix.
			if terr := os.Truncate(path, valid); terr != nil {
				return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", terr)
			}
		}
		records = append(records, recs...)
		j.total += valid
		lastSize = valid
	}

	if len(live) > 0 {
		j.seq = live[len(live)-1]
		j.size = lastSize
		f, oerr := os.OpenFile(filepath.Join(dir, segName(j.seq)), os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return nil, nil, fmt.Errorf("journal: %w", oerr)
		}
		j.f = f
	} else {
		j.seq = snapSeq + 1
		f, oerr := os.OpenFile(filepath.Join(dir, segName(j.seq)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if oerr != nil {
			return nil, nil, fmt.Errorf("journal: %w", oerr)
		}
		j.f = f
		syncDir(dir)
	}
	return j, records, nil
}

// Read replays dir without opening it for writing and without mutating
// any file: the same records Open would return (tools, tests,
// invariant checks on a journal another process may still own).
func Read(dir string) ([]Record, error) {
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	var records []Record
	var snapSeq uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		if data, ok := readSnapshot(filepath.Join(dir, snapName(snaps[i]))); ok {
			snapSeq = snaps[i]
			records = append(records, Record{Type: TypeSnapshot, Data: data})
			break
		}
	}
	for _, seq := range segs {
		if seq <= snapSeq {
			continue
		}
		recs, _, _, rerr := readSegment(filepath.Join(dir, segName(seq)))
		if rerr != nil {
			return nil, rerr
		}
		records = append(records, recs...)
	}
	return records, nil
}

// Append frames one record, writes it to the active segment, and (unless
// NoSync) fsyncs before returning — the record is durable on success.
// Appends that grow the segment past SegmentBytes rotate afterwards.
func (j *Journal) Append(t Type, data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.hook(OpAppend); err != nil {
		return err
	}
	frame := frameRecord(t, data)
	if _, err := j.f.Write(frame); err != nil {
		// Best effort: cut back to the record boundary so a failed write
		// cannot leave a torn frame in the middle of the segment ahead
		// of later, successful appends.
		j.f.Truncate(j.size)
		j.f.Seek(j.size, 0)
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	j.total += int64(len(frame))
	j.appends++
	if !j.opt.NoSync {
		if err := j.hook(OpFsync); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	if j.size >= j.opt.SegmentBytes {
		return j.rotateLocked()
	}
	return nil
}

// Compact collapses everything appended so far into a single snapshot:
// state becomes the journal's new prefix, the segments it covers are
// deleted, and appends continue on a fresh segment. The snapshot file is
// written to a temp name, fsync'd, and renamed, so a crash at any point
// leaves either the old segments or the new snapshot — never neither.
func (j *Journal) Compact(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.hook(OpSnapshot); err != nil {
		return err
	}
	covered := j.seq
	if err := j.rotateLocked(); err != nil {
		return err
	}
	tmp := filepath.Join(j.dir, fmt.Sprintf("snap-%08d.tmp", covered))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := f.Write(frameRecord(TypeSnapshot, state)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	final := filepath.Join(j.dir, snapName(covered))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	syncDir(j.dir)

	// The snapshot is durable: everything it covers is garbage.
	snaps, segs, err := scanDir(j.dir)
	if err == nil {
		for _, seq := range segs {
			if seq <= covered {
				os.Remove(filepath.Join(j.dir, segName(seq)))
			}
		}
		for _, seq := range snaps {
			if seq < covered {
				os.Remove(filepath.Join(j.dir, snapName(seq)))
			}
		}
	}
	j.total = j.size
	return nil
}

// rotateLocked fsyncs and closes the active segment and opens the next.
func (j *Journal) rotateLocked() error {
	if err := j.hook(OpRotate); err != nil {
		return err
	}
	if !j.opt.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: rotate: %w", err)
		}
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.seq++
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.seq)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.f = f
	j.size = 0
	syncDir(j.dir)
	return nil
}

// Close fsyncs and closes the active segment. Further operations fail
// with ErrClosed. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if !j.opt.NoSync {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Size returns the bytes held in live segments (snapshot excluded) —
// the compaction trigger the service watches.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Appends returns how many records have been appended since Open.
func (j *Journal) Appends() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Segments returns the number of live segment files.
func (j *Journal) Segments() int {
	_, segs, err := scanDir(j.dir)
	if err != nil {
		return 1
	}
	return len(segs)
}

func (j *Journal) hook(op Op) error {
	if j.opt.Hook == nil {
		return nil
	}
	return j.opt.Hook(op)
}

// ---------------------------------------------------------------------------
// Framing and file-format helpers

// frameRecord encodes one record: length, CRC32C(type+payload), type,
// payload.
func frameRecord(t Type, data []byte) []byte {
	n := 1 + len(data)
	buf := make([]byte, headerBytes+n)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	buf[headerBytes] = byte(t)
	copy(buf[headerBytes+1:], data)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[headerBytes:], castagnoli))
	return buf
}

// readSegment decodes every complete, CRC-valid record of one segment.
// valid is the byte offset of the first invalid frame (== total when the
// whole segment parses).
func readSegment(path string) (recs []Record, valid, total int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: %w", err)
	}
	off := 0
	for {
		if len(data)-off < headerBytes {
			break // torn or absent header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxRecordBytes {
			break // garbage length: treat as torn tail
		}
		if len(data)-off-headerBytes < n {
			break // torn payload
		}
		body := data[off+headerBytes : off+headerBytes+n]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break // bit rot or torn overwrite
		}
		payload := make([]byte, n-1)
		copy(payload, body[1:])
		recs = append(recs, Record{Type: Type(body[0]), Data: payload})
		off += headerBytes + n
	}
	return recs, int64(off), int64(len(data)), nil
}

// readSnapshot validates and returns a snapshot file's payload.
func readSnapshot(path string) ([]byte, bool) {
	recs, valid, total, err := readSegment(path)
	if err != nil || valid != total || len(recs) != 1 || recs[0].Type != TypeSnapshot {
		return nil, false
	}
	return recs[0].Data, true
}

func segName(seq uint64) string  { return fmt.Sprintf("seg-%08d.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// scanDir lists snapshot and segment sequence numbers, each ascending.
func scanDir(dir string) (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		var seq uint64
		switch {
		case matchSeq(e.Name(), "seg-", ".wal", &seq):
			segs = append(segs, seq)
		case matchSeq(e.Name(), "snap-", ".snap", &seq):
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	return snaps, segs, nil
}

func matchSeq(name, prefix, suffix string, seq *uint64) bool {
	if len(name) != len(prefix)+8+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	var n uint64
	for _, c := range name[len(prefix) : len(prefix)+8] {
		if c < '0' || c > '9' {
			return false
		}
		n = n*10 + uint64(c-'0')
	}
	*seq = n
	return true
}

func removeTemps(dir string) {
	tmps, _ := filepath.Glob(filepath.Join(dir, "snap-*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}
}

// syncDir fsyncs a directory so renames and creates within it are
// durable; best effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
