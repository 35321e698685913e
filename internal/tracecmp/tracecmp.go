// Package tracecmp aligns and compares two flow recordings (NDJSON
// span traces) into a Table-2-style per-stage delta report. It is the
// core of `tracestat BASE CUR`, the one place two runs are compared:
// tpitables -trace files and tpid's archived traces
// (GET /v1/runs/{id}/trace) both load as a Side.
package tracecmp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"tpilayout/internal/telemetry"
)

// Key identifies one comparable cell: a flow stage at one TP level.
type Key struct {
	Stage string
	TP    float64
}

func (k Key) String() string {
	return fmt.Sprintf("%s @ tp %.1f%%", k.Stage, k.TP)
}

// Cell is one side's aggregate for a key.
type Cell struct {
	DurNS    float64          // summed span durations
	Counters map[string]int64 // summed span counters
}

// Side is one loaded input: its cells plus the per-level run totals
// used by Options.Normalize.
type Side struct {
	Cells    map[Key]*Cell
	RunTotal map[float64]float64 // tp -> summed run-span ns
}

// LoadTrace aggregates an NDJSON trace into per-(stage, TP) cells.
// The reader may be gzip-compressed (sniffed by magic bytes).
func LoadTrace(r io.Reader) (*Side, error) {
	trace, err := telemetry.ParseTrace(r)
	if err != nil {
		return nil, err
	}
	return FromTrace(trace)
}

// FromTrace builds a Side from a parsed trace: every run span and every
// direct stage child of a run span counts, summing durations and
// counters — repeated stages (timing-opt re-placement) fold into one
// cell, matching how tracestat tabulates.
func FromTrace(trace *telemetry.Trace) (*Side, error) {
	if !trace.Balanced() {
		return nil, fmt.Errorf("unbalanced trace (span ids %v)", trace.Unbalanced)
	}
	runLevel := map[int64]float64{}
	s := &Side{Cells: map[Key]*Cell{}, RunTotal: map[float64]float64{}}
	for _, sp := range trace.Spans {
		if sp.Stage == "run" {
			runLevel[sp.ID] = sp.TPPercent
			s.RunTotal[sp.TPPercent] += float64(sp.Duration)
		}
	}
	if len(runLevel) == 0 {
		return nil, fmt.Errorf("no run spans in trace")
	}
	for _, sp := range trace.Spans {
		var k Key
		if sp.Stage == "run" {
			k = Key{"run", sp.TPPercent}
		} else if tp, ok := runLevel[sp.Parent]; ok {
			k = Key{sp.Stage, tp}
		} else {
			continue
		}
		c := s.Cells[k]
		if c == nil {
			c = &Cell{Counters: map[string]int64{}}
			s.Cells[k] = c
		}
		c.DurNS += float64(sp.Duration)
		for name, v := range sp.Counters {
			c.Counters[name] += v
		}
	}
	return s, nil
}

// Options control the comparison.
type Options struct {
	MaxRegressPct  float64       // duration regression gate, in percent
	HardRegressPct float64       // absolute-time backstop gate in Normalize mode (0 = off)
	MinDur         time.Duration // noise floor: smaller baseline cells never gate
	Normalize      bool          // compare share-of-run-total instead of absolute ns
}

// Row is one line of the delta report.
type Row struct {
	Key
	BaseNS    float64 // the compared values (ns, or shares ×100 when normalized)
	CurNS     float64
	DeltaPct  float64 // (cur-base)/base in percent; NaN when base == 0
	Regressed bool    // beyond the gate and above the noise floor
	Note      string  // "only in baseline" / "only in current" / counter deltas
}

// Report is the full comparison outcome.
type Report struct {
	Rows        []Row
	Regressions []Row
	Normalized  bool
}

// value returns the comparable number for a cell: absolute summed ns,
// or — normalized — the cell's percent share of its level's run total.
func value(s *Side, k Key, c *Cell, normalize bool) float64 {
	if !normalize {
		return c.DurNS
	}
	total := s.RunTotal[k.TP]
	if k.Stage == "run" || total == 0 {
		// Run spans define the total; their share is 100 by construction.
		return 100
	}
	return 100 * c.DurNS / total
}

// Diff compares baseline and current side by side.
func Diff(base, cur *Side, opt Options) *Report {
	rep := &Report{Normalized: opt.Normalize}
	keys := map[Key]bool{}
	for k := range base.Cells {
		keys[k] = true
	}
	for k := range cur.Cells {
		keys[k] = true
	}
	ordered := make([]Key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].TP != ordered[j].TP {
			return ordered[i].TP < ordered[j].TP
		}
		return ordered[i].Stage < ordered[j].Stage
	})

	for _, k := range ordered {
		b, inBase := base.Cells[k]
		c, inCur := cur.Cells[k]
		switch {
		case !inCur:
			rep.Rows = append(rep.Rows, Row{Key: k, BaseNS: value(base, k, b, opt.Normalize), DeltaPct: math.NaN(), Note: "only in baseline"})
			continue
		case !inBase:
			rep.Rows = append(rep.Rows, Row{Key: k, CurNS: value(cur, k, c, opt.Normalize), DeltaPct: math.NaN(), Note: "only in current"})
			continue
		}
		r := Row{
			Key:    k,
			BaseNS: value(base, k, b, opt.Normalize),
			CurNS:  value(cur, k, c, opt.Normalize),
		}
		if r.BaseNS != 0 {
			r.DeltaPct = 100 * (r.CurNS - r.BaseNS) / r.BaseNS
		} else if r.CurNS != 0 {
			r.DeltaPct = math.Inf(1)
		}
		// The gate: a duration regression beyond the threshold, on a cell
		// big enough to clear the noise floor (floor always measured on
		// absolute baseline time, even in -normalize mode).
		if r.DeltaPct > opt.MaxRegressPct && b.DurNS >= float64(opt.MinDur) {
			r.Regressed = true
		}
		r.Note = counterDelta(b.Counters, c.Counters)
		// -normalize backstop: a stage that dominates its run is share-
		// invariant (slowing it slows the run total too, and the ratio
		// cancels — exactly like a slower machine). An absolute slip
		// beyond the hard threshold is no host's jitter, so it gates even
		// when the share barely moved.
		if opt.Normalize && opt.HardRegressPct > 0 && !r.Regressed &&
			b.DurNS >= float64(opt.MinDur) && b.DurNS != 0 {
			absPct := 100 * (c.DurNS - b.DurNS) / b.DurNS
			if absPct > opt.HardRegressPct {
				r.Regressed = true
				note := fmt.Sprintf("absolute %s -> %s (%+.0f%%)", FmtDur(time.Duration(b.DurNS)), FmtDur(time.Duration(c.DurNS)), absPct)
				if r.Note != "" {
					note += ", " + r.Note
				}
				r.Note = note
			}
		}
		rep.Rows = append(rep.Rows, r)
		if r.Regressed {
			rep.Regressions = append(rep.Regressions, r)
		}
	}
	return rep
}

// counterDelta summarizes changed counters ("atpg.patterns 412->430"),
// empty when every shared counter matches.
func counterDelta(base, cur map[string]int64) string {
	names := map[string]bool{}
	for n := range base {
		names[n] = true
	}
	for n := range cur {
		names[n] = true
	}
	var changed []string
	for n := range names {
		if base[n] != cur[n] {
			changed = append(changed, fmt.Sprintf("%s %d->%d", n, base[n], cur[n]))
		}
	}
	sort.Strings(changed)
	return strings.Join(changed, ", ")
}

// Write renders the Table-2-style report: one row per stage × TP level,
// baseline and current columns, signed delta, and any counter drift.
func (rep *Report) Write(w io.Writer) {
	unit := "wall time"
	if rep.Normalized {
		unit = "share of run"
	}
	fmt.Fprintf(w, "%-24s %12s %12s %9s  %s\n", "stage", "baseline", "current", "delta", "notes")
	for _, r := range rep.Rows {
		mark := " "
		if r.Regressed {
			mark = "!"
		}
		fmt.Fprintf(w, "%s%-23s %12s %12s %9s  %s\n",
			mark, r.Key, rep.fmtVal(r.BaseNS), rep.fmtVal(r.CurNS), fmtDelta(r.DeltaPct), r.Note)
	}
	fmt.Fprintf(w, "\n%d cells compared (%s)", len(rep.Rows), unit)
	if len(rep.Regressions) == 0 {
		fmt.Fprint(w, ", no regressions beyond threshold\n")
		return
	}
	fmt.Fprintf(w, ", %d REGRESSION(S):\n", len(rep.Regressions))
	for _, r := range rep.Regressions {
		fmt.Fprintf(w, "  %s: %s -> %s (%+.1f%%)\n", r.Key, rep.fmtVal(r.BaseNS), rep.fmtVal(r.CurNS), r.DeltaPct)
	}
}

func (rep *Report) fmtVal(v float64) string {
	if rep.Normalized {
		return fmt.Sprintf("%.1f%%", v)
	}
	return FmtDur(time.Duration(v))
}

func fmtDelta(pct float64) string {
	if math.IsNaN(pct) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

// FmtDur renders a duration at table-friendly precision (tracestat's
// convention).
func FmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d >= time.Second || d <= -time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond || d <= -time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%dµs", d/time.Microsecond)
	}
}
