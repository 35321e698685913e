package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"tpilayout/internal/flow"
)

// checkRows returns why one op's table rows are wrong; nil means the op
// produced a usable Table 1–3 row for every requested level.
func checkRows(rows []flow.Metrics, levels []float64, atpg bool) error {
	if len(rows) != len(levels) {
		return fmt.Errorf("%d rows for %d levels", len(rows), len(levels))
	}
	for i, m := range rows {
		at := func(format string, args ...any) error {
			return fmt.Errorf("level %g%%: %s", levels[i], fmt.Sprintf(format, args...))
		}
		if atpg {
			if !(0 < m.FC && m.FC <= m.FE && m.FE <= 100) {
				return at("want 0 < FC <= FE <= 100, got FC=%g FE=%g", m.FC, m.FE)
			}
			if m.Patterns <= 0 {
				return at("no patterns")
			}
			if m.Truncated {
				return at("ATPG truncated")
			}
		}
		if !(m.ChipArea >= m.CoreArea && m.CoreArea > 0) {
			return at("want chip >= core > 0, got chip=%g core=%g", m.ChipArea, m.CoreArea)
		}
		if !(m.LWires > 0) {
			return at("no wires")
		}
		if len(m.Timing) == 0 {
			return at("no timing rows")
		}
		for _, t := range m.Timing {
			// Eq. 3 of the paper: the critical-path time is the sum of its
			// parts. A path launched at a primary input has no launch clock:
			// sta reports skew 0 for it while Tcp still subtracts the capture
			// flop's clock arrival, so its parts exceed Tcp by that insertion
			// delay (~100 ps; 2 of 148 wctrl1 circuits have such a path).
			sum := t.TWires + t.TIntr + t.TLoadDep + t.TSetup + t.TSkew
			piLaunched := t.TSkew == 0 && sum > t.TcpPS && sum-t.TcpPS <= 0.1*t.TcpPS
			if !(t.TcpPS > 0) || (math.Abs(sum-t.TcpPS) > 1 && !piLaunched) {
				return at("domain %s: Eq. 3 parts sum to %.3f ps, Tcp is %.3f ps", t.Domain, sum, t.TcpPS)
			}
		}
	}
	return nil
}

// worstTcpPS is the row's critical-path time over all clock domains.
func worstTcpPS(m flow.Metrics) float64 {
	var w float64
	for _, t := range m.Timing {
		w = math.Max(w, t.TcpPS)
	}
	return w
}

// quality accumulates the table-quality metrics over the distinct
// (circuit, level) rows of a run's measured ops, and the tables each op
// rendered. Both depend only on the script, never on timing.
type quality struct {
	rows             int
	area, wires, tcp float64
	atpgRows         int
	fe, tdv          float64
	seen             map[string]*seenRow // by circuit/level
	tables           []string            // by measured op index; "" where the op failed
}

type seenRow struct {
	hash    [sha256.Size]byte
	counted bool // a measured op produced it, so it is in the sums
}

func newQuality() *quality { return &quality{seen: map[string]*seenRow{}} }

// add folds one op's rows and rendered tables in; a warm-up op passes
// index -1 and is only remembered. The determinism guard: a (circuit,
// level) row, or an op's tables, produced before must come out identical.
func (q *quality) add(index, circuit int, levels []float64, rows []flow.Metrics, atpg bool, tables ...string) error {
	var drifted error
	if index >= 0 {
		for len(q.tables) <= index {
			q.tables = append(q.tables, "")
		}
		joined := strings.Join(tables, "\x00")
		if prev := q.tables[index]; prev != "" && prev != joined {
			drifted = fmt.Errorf("op %d: tables differ from its first run", index)
		}
		q.tables[index] = joined
	}
	for i, m := range rows {
		key := fmt.Sprintf("%d/%g", circuit, levels[i])
		hash := sha256.Sum256([]byte(fmt.Sprintf("%+v", m)))
		row, ok := q.seen[key]
		if !ok {
			row = &seenRow{hash: hash}
			q.seen[key] = row
		} else if row.hash != hash {
			drifted = fmt.Errorf("circuit %d level %g%%: row differs from its first run", circuit, levels[i])
		}
		if index < 0 || row.counted {
			continue
		}
		row.counted = true
		q.rows++
		q.area += m.ChipArea
		q.wires += m.LWires
		q.tcp += worstTcpPS(m)
		if atpg {
			q.atpgRows++
			q.fe += m.FE
			q.tdv += float64(m.TDV)
		}
	}
	return drifted
}

// tablesSHA256 hashes every measured op's tables in script order.
func (q *quality) tablesSHA256() string {
	h := sha256.New()
	for _, t := range q.tables {
		h.Write([]byte(t))
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (q *quality) chipAreaMM2() float64  { return q.area / float64(max(q.rows, 1)) / 1e6 }
func (q *quality) wirelengthMM() float64 { return q.wires / float64(max(q.rows, 1)) / 1e3 }
func (q *quality) tcpNS() float64        { return q.tcp / float64(max(q.rows, 1)) / 1e3 }
func (q *quality) fePct() float64        { return q.fe / float64(max(q.atpgRows, 1)) }
func (q *quality) tdvKbit() float64      { return q.tdv / float64(max(q.atpgRows, 1)) / 1e3 }
