package service

// Builds before the job files kept jobs and checkpoints in a journal
// (internal/journal) in the data dir: accepted, level-done, retired and
// (older still) canceled records behind an optional snapshot of their
// fold. Open folds it into files once, then removes it.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"tpilayout/internal/journal"
	"tpilayout/internal/trachive"
)

// walFiles are the names a parent build's journal left in the data dir.
var walFiles = []string{"seg-*.wal", "snap-*.snap", "snap-*.tmp"}

// foldParentWAL writes a file for every job and checkpoint the journal
// in dir folds to, then removes the journal durably, so a power loss
// cannot bring it back to be folded over newer files. A crash part-way
// folds again at the next Open, into the same files.
func foldParentWAL(dir string) error {
	recs, err := journal.Read(dir)
	if err != nil {
		return fmt.Errorf("service: reading the parent journal: %w", err)
	}
	st := foldRecords(recs)
	write := func(sub, id string, img any) error {
		if id == "" || len(fileName(id)) > 255 { // no file can hold it
			return nil
		}
		data, err := json.Marshal(img)
		if err == nil {
			err = trachive.WriteFile(filepath.Join(dir, sub, fileName(id)), data)
		}
		return err
	}
	t0 := time.Now()
	for i := range st.Levels {
		st.Levels[i].Done = t0.Add(time.Duration(i)) // the journal's order is the eviction order
		if err := write(levelsDir, st.Levels[i].Key, &st.Levels[i]); err != nil {
			return err
		}
	}
	for _, img := range append(st.Pending, st.Retired...) {
		if err := write(jobsDir, img.JobID, &img); err != nil {
			return err
		}
	}
	for _, pattern := range walFiles {
		names, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, name := range names {
			if err := os.Remove(name); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	}
	trachive.SyncDir(dir)
	return nil
}

// foldRecords reduces a parent journal's records to the state they
// leave. A snapshot record decodes as a dataState: its pending jobs
// were accepted records, its retired jobs carry a retired image's fields.
func foldRecords(recs []journal.Record) *dataState {
	st := &dataState{}
	// retire moves a pending job to the retired list under the verdict r
	// of its terminal record; a second terminal record for the job, or
	// one for a job never accepted, changes nothing.
	retire := func(id string, r jobImage) {
		i := slices.IndexFunc(st.Pending, func(p jobImage) bool { return p.JobID == id })
		if i < 0 {
			return
		}
		acc := st.Pending[i]
		st.Pending = slices.Delete(st.Pending, i, i+1)
		r.JobID, r.Tenant, r.Name, r.TPLevels, r.Created = id, acc.Tenant, acc.Name, acc.TPLevels, acc.Created
		st.Retired = append(st.Retired, r)
	}
	for _, r := range recs {
		switch r.Type {
		case journal.TypeSnapshot:
			var snap dataState
			if json.Unmarshal(r.Data, &snap) == nil {
				st = &snap
			}
		case journal.TypeAccepted:
			var rec jobImage
			if json.Unmarshal(r.Data, &rec) == nil && rec.JobID != "" &&
				!slices.ContainsFunc(st.Pending, func(p jobImage) bool { return p.JobID == rec.JobID }) {
				st.Pending = append(st.Pending, rec)
			}
		case journal.TypeLevelDone:
			// A later checkpoint of a key is written over the earlier one.
			var rec levelImage
			if json.Unmarshal(r.Data, &rec) == nil && rec.Key != "" {
				st.Levels = append(st.Levels, rec)
			}
		case journal.TypeRetired:
			// One record retired every job of a run together.
			var rec struct {
				JobIDs []string `json:"job_ids"`
				jobImage
			}
			if json.Unmarshal(r.Data, &rec) == nil {
				for _, id := range rec.JobIDs {
					retire(id, rec.jobImage)
				}
			}
		case journal.TypeCanceled:
			var rec jobImage
			if json.Unmarshal(r.Data, &rec) == nil {
				retire(rec.JobID, jobImage{
					RunID: rec.RunID, State: StateCanceled, Error: canceledByClient, Finished: rec.Finished,
				})
			}
		}
	}
	return st
}
