package atpg

// satSolver is a small CDCL SAT solver for the residue pass: two watched
// literals with blockers, first-UIP learning with local minimisation, an
// activity heap (VSIDS), phase saving and Luby restarts. Learnt clauses are
// never deleted and are kept in the order they were learnt, so the clause
// arena past the formula doubles as a DRUP proof of every UNSAT answer. The
// solver is deterministic (no map iteration, no clock), and one instance is
// reset and reused for every call, keeping its arenas.
type satSolver struct {
	// Clause arena: clause c is db[start[c]:start[c+1]]. The first nOrig
	// clauses are the formula, the rest the learnt clauses in order. Unit
	// clauses are stored but never watched.
	db    []lit
	start []int32
	nOrig int

	units []lit // unit clauses of the formula, asserted when solving starts
	empty bool  // the formula holds an empty clause

	watches [][]watcher // per literal: clauses it is one of the first two of

	lv     []int8  // per literal: 1 true, -1 false, 0 unassigned
	level  []int32 // per variable
	reason []int32 // per variable: implying clause, -1 for decisions and units
	trail  []lit
	lim    []int32 // trail length at the start of each decision level
	qhead  int

	act   []float64 // per variable activity
	inc   float64
	heap  []int32 // variables, max-heap on act
	hpos  []int32 // position of a variable in heap, -1 when absent
	phase []bool  // last value of each variable

	seen    []bool
	learnt  []lit
	toClear []lit
}

// lit is a literal: variable v is 2v, its negation 2v+1.
type lit int32

func posLit(v int32) lit { return lit(2 * v) }
func (l lit) neg() lit   { return l ^ 1 }
func (l lit) vr() int32  { return int32(l >> 1) }
func litOf(v int32, b bool) lit {
	if b {
		return posLit(v)
	}
	return posLit(v).neg()
}

type watcher struct {
	cref    int32
	blocker lit // a literal of the clause; when true, the clause needs no visit
}

type satResult int

const (
	satUnknown satResult = iota // the conflict budget ran out
	satSat
	satUnsat
)

// Restart and activity constants.
const (
	satRestartUnit = 100 // conflicts per Luby unit
	satVarDecay    = 0.95
)

// reset empties the solver for a new formula, keeping its arenas.
func (s *satSolver) reset() {
	s.db = s.db[:0]
	s.start = append(s.start[:0], 0)
	s.nOrig = 0
	s.units = s.units[:0]
	s.empty = false
	s.watches = s.watches[:0]
	s.lv = s.lv[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.trail = s.trail[:0]
	s.lim = s.lim[:0]
	s.qhead = 0
	s.act = s.act[:0]
	s.inc = 1
	s.heap = s.heap[:0]
	s.hpos = s.hpos[:0]
	s.phase = s.phase[:0]
	s.seen = s.seen[:0]
}

// newVar adds a variable and returns it.
func (s *satSolver) newVar() int32 {
	v := int32(len(s.level))
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.lv = append(s.lv, 0, 0)
	s.act = append(s.act, 0)
	s.hpos = append(s.hpos, -1)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	for k := 0; k < 2; k++ {
		if n := len(s.watches); n < cap(s.watches) {
			s.watches = s.watches[:n+1]
			s.watches[n] = s.watches[n][:0]
		} else {
			s.watches = append(s.watches, nil)
		}
	}
	return v
}

// addClause adds a clause of the formula; call before solve. Duplicate
// literals are merged and a tautology is dropped. It sorts c in place, so
// c keeps its literals but not their order.
func (s *satSolver) addClause(c ...lit) {
	// Insertion sort: gate clauses have a handful of literals.
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	n := 0
	for i, l := range c {
		if i > 0 && l == c[n-1] {
			continue
		}
		if i > 0 && l == c[n-1].neg() {
			return // tautology
		}
		c[n] = l
		n++
	}
	c = c[:n]
	switch len(c) {
	case 0:
		s.empty = true
	case 1:
		s.units = append(s.units, c[0])
	}
	s.store(c)
}

// store appends a clause to the arena, watching its first two literals.
func (s *satSolver) store(c []lit) int32 {
	cref := int32(len(s.start) - 1)
	s.db = append(s.db, c...)
	s.start = append(s.start, int32(len(s.db)))
	if len(c) >= 2 {
		s.watches[c[0]] = append(s.watches[c[0]], watcher{cref, c[1]})
		s.watches[c[1]] = append(s.watches[c[1]], watcher{cref, c[0]})
	}
	return cref
}

// clause returns clause c of the arena.
func (s *satSolver) clause(c int32) []lit { return s.db[s.start[c]:s.start[c+1]] }

// value reports the model value of a literal after satSat.
func (s *satSolver) value(l lit) bool { return s.lv[l] == 1 }

func (s *satSolver) enqueue(l lit, from int32) {
	v := l.vr()
	s.lv[l], s.lv[l.neg()] = 1, -1
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// solve decides the formula within a budget of conflicts.
func (s *satSolver) solve(budget int) satResult {
	s.nOrig = len(s.start) - 1
	if s.empty {
		return satUnsat
	}
	for v := range s.level {
		s.heapInsert(int32(v))
	}
	for _, u := range s.units {
		switch s.lv[u] {
		case 1:
			continue
		case -1:
			return satUnsat
		}
		s.enqueue(u, -1)
	}
	conflicts, restarts, sinceRestart := 0, 0, 0
	for {
		if confl := s.propagate(); confl >= 0 {
			if len(s.lim) == 0 {
				return satUnsat
			}
			conflicts++
			sinceRestart++
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			cref := s.store(learnt)
			if len(learnt) == 1 {
				cref = -1
			}
			s.enqueue(learnt[0], cref)
			s.inc /= satVarDecay
			if conflicts >= budget {
				return satUnknown
			}
			continue
		}
		if sinceRestart >= luby(restarts)*satRestartUnit {
			restarts++
			sinceRestart = 0
			s.cancelUntil(0)
		}
		v := s.pickBranch()
		if v < 0 {
			return satSat
		}
		s.lim = append(s.lim, int32(len(s.trail)))
		s.enqueue(litOf(v, s.phase[v]), -1)
	}
}

// propagate runs unit propagation to a fixed point and returns a
// conflicting clause, or -1.
func (s *satSolver) propagate() int32 {
	for s.qhead < len(s.trail) {
		fl := s.trail[s.qhead].neg()
		s.qhead++
		ws := s.watches[fl]
		i, j := 0, 0
		confl := int32(-1)
		for i < len(ws) {
			w := ws[i]
			i++
			if s.lv[w.blocker] == 1 {
				ws[j] = w
				j++
				continue
			}
			c := s.clause(w.cref)
			if c[0] == fl {
				c[0], c[1] = c[1], fl
			}
			first := c[0]
			nw := watcher{w.cref, first}
			if first != w.blocker && s.lv[first] == 1 {
				ws[j] = nw
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if s.lv[c[k]] != -1 {
					c[1], c[k] = c[k], fl
					s.watches[c[1]] = append(s.watches[c[1]], nw)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = nw
			j++
			if s.lv[first] == -1 {
				confl = w.cref
				j += copy(ws[j:], ws[i:])
				break
			}
			s.enqueue(first, w.cref)
		}
		s.watches[fl] = ws[:j]
		if confl >= 0 {
			s.qhead = len(s.trail)
			return confl
		}
	}
	return -1
}

// analyze derives the first-UIP clause of a conflict, asserting literal
// first, with the literal of the backjump level second, and returns it
// with that level. A literal whose reason holds only literals already in
// the clause (or fixed at level 0) is dropped.
func (s *satSolver) analyze(confl int32) ([]lit, int) {
	out := append(s.learnt[:0], 0)
	dl := int32(len(s.lim))
	pathC := 0
	p := lit(-1)
	idx := len(s.trail) - 1
	for {
		for k, q := range s.clause(confl) {
			if p >= 0 && k == 0 {
				continue // the literal this reason implied
			}
			v := q.vr()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bump(v)
			if s.level[v] == dl {
				pathC++
			} else {
				out = append(out, q)
			}
		}
		for !s.seen[s.trail[idx].vr()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.vr()]
		s.seen[p.vr()] = false
		if pathC--; pathC == 0 {
			break
		}
	}
	out[0] = p.neg()

	s.toClear = append(s.toClear[:0], out[1:]...)
	j := 1
	for _, l := range out[1:] {
		if r := s.reason[l.vr()]; r >= 0 && s.implied(r) {
			continue
		}
		out[j] = l
		j++
	}
	out = out[:j]
	for _, l := range s.toClear {
		s.seen[l.vr()] = false
	}

	bt := 0
	if len(out) > 1 {
		mi := 1
		for i := 2; i < len(out); i++ {
			if s.level[out[i].vr()] > s.level[out[mi].vr()] {
				mi = i
			}
		}
		out[1], out[mi] = out[mi], out[1]
		bt = int(s.level[out[1].vr()])
	}
	s.learnt = out
	return out, bt
}

// implied reports whether every antecedent of reason clause r is in the
// clause being learnt or fixed at level 0.
func (s *satSolver) implied(r int32) bool {
	for _, q := range s.clause(r)[1:] {
		if !s.seen[q.vr()] && s.level[q.vr()] > 0 {
			return false
		}
	}
	return true
}

// cancelUntil undoes every assignment above decision level lvl, saving
// each variable's phase.
func (s *satSolver) cancelUntil(lvl int) {
	if len(s.lim) <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= int(s.lim[lvl]); i-- {
		l := s.trail[i]
		v := l.vr()
		s.phase[v] = l&1 == 0
		s.lv[l], s.lv[l.neg()] = 0, 0
		s.reason[v] = -1
		if s.hpos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:s.lim[lvl]]
	s.lim = s.lim[:lvl]
	s.qhead = len(s.trail)
}

// pickBranch pops the most active unassigned variable, or -1.
func (s *satSolver) pickBranch() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.lv[posLit(v)] == 0 {
			return v
		}
	}
	return -1
}

func (s *satSolver) bump(v int32) {
	if s.act[v] += s.inc; s.act[v] > 1e100 {
		for i := range s.act {
			s.act[i] *= 1e-100
		}
		s.inc *= 1e-100
	}
	if s.hpos[v] >= 0 {
		s.siftUp(int(s.hpos[v]))
	}
}

func (s *satSolver) heapInsert(v int32) {
	s.hpos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.siftUp(len(s.heap) - 1)
}

func (s *satSolver) heapPop() int32 {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.hpos[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.hpos[last] = 0
		s.siftDown(0)
	}
	return v
}

func (s *satSolver) siftUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if s.act[s.heap[p]] >= s.act[v] {
			break
		}
		s.heap[i] = s.heap[p]
		s.hpos[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.hpos[v] = int32(i)
}

func (s *satSolver) siftDown(i int) {
	v := s.heap[i]
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			break
		}
		if c+1 < len(s.heap) && s.act[s.heap[c+1]] > s.act[s.heap[c]] {
			c++
		}
		if s.act[s.heap[c]] <= s.act[v] {
			break
		}
		s.heap[i] = s.heap[c]
		s.hpos[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.hpos[v] = int32(i)
}

// luby returns the i-th element (from 0) of the Luby sequence 1 1 2 1 1 2
// 4 1 1 2 ...
func luby(i int) int {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) >> 1
		seq--
		i %= size
	}
	return 1 << seq
}
