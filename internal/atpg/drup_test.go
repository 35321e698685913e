package atpg

import (
	"errors"
	"fmt"
)

// drupCheck is the independent judge of the solver's UNSAT answers: it
// accepts lemmas as a DRUP refutation of formula when every lemma, in
// order, follows by reverse unit propagation from the formula and the
// lemmas before it (asserting the lemma's negation and propagating ends in
// a conflict), and propagation over all of them ends in a conflict. It
// shares no code with the solver: plain occurrence lists, every clause
// re-read on each visit.
func drupCheck(nVars int, formula, lemmas [][]lit) error {
	r := &rupState{val: make([]int8, 2*nVars), occ: make([][]int, 2*nVars)}
	for _, c := range formula {
		if r.add(c) {
			return nil
		}
	}
	for i, l := range lemmas {
		if !r.implied(l) {
			return fmt.Errorf("lemma %d of %d, %v, does not follow by unit propagation", i, len(lemmas), l)
		}
		if r.add(l) {
			return nil
		}
	}
	return errors.New("unit propagation over the formula and every lemma ends in no conflict")
}

// rupState is the formula read so far and the top-level assignment unit
// propagation derives from it.
type rupState struct {
	clauses [][]lit
	occ     [][]int // per literal, the clauses holding it
	val     []int8  // per literal: 1 true, -1 false, 0 unassigned
	trail   []lit
}

func (r *rupState) assign(l lit) {
	r.val[l], r.val[l^1] = 1, -1
	r.trail = append(r.trail, l)
}

// eval classifies a clause under the current assignment: satisfied, or
// else how many distinct literals are unassigned (0, 1, or 2 for "two or
// more") and one of them. Clauses may repeat a literal.
func (r *rupState) eval(c []lit) (sat bool, free int, unit lit) {
	for _, q := range c {
		switch r.val[q] {
		case 1:
			return true, 0, 0
		case 0:
			if free == 0 {
				free, unit = 1, q
			} else if q != unit {
				free = 2
			}
		}
	}
	return false, free, unit
}

// propagate runs unit propagation over the assignments from trail position
// from on and reports whether it reached a conflict.
func (r *rupState) propagate(from int) bool {
	for i := from; i < len(r.trail); i++ {
		for _, ci := range r.occ[r.trail[i]^1] {
			sat, free, unit := r.eval(r.clauses[ci])
			switch {
			case sat:
			case free == 0:
				return true
			case free == 1 && r.val[unit] == 0:
				r.assign(unit)
			}
		}
	}
	return false
}

// add adds a clause at top level and reports whether the formula is now
// refuted by unit propagation.
func (r *rupState) add(c []lit) bool {
	ci := len(r.clauses)
	r.clauses = append(r.clauses, c)
	for _, q := range c {
		r.occ[q] = append(r.occ[q], ci)
	}
	sat, free, unit := r.eval(c)
	switch {
	case sat:
		return false
	case free == 0:
		return true
	case free == 1:
		from := len(r.trail)
		r.assign(unit)
		return r.propagate(from)
	}
	return false
}

// implied reports whether asserting the negation of c and propagating
// reaches a conflict; the assignment is restored afterwards.
func (r *rupState) implied(c []lit) bool {
	mark := len(r.trail)
	conflict := false
	for _, q := range c {
		if r.val[q] == 1 {
			conflict = true
			break
		}
		if r.val[q] == 0 {
			r.assign(q ^ 1)
		}
	}
	conflict = conflict || r.propagate(mark)
	for _, q := range r.trail[mark:] {
		r.val[q], r.val[q^1] = 0, 0
	}
	r.trail = r.trail[:mark]
	return conflict
}

// proof returns the formula and the learnt clauses of the solver's last
// call, for drupCheck.
func (s *satSolver) proof() (formula, lemmas [][]lit) {
	for c := 0; c < len(s.start)-1; c++ {
		cl := append([]lit(nil), s.clause(int32(c))...)
		if c < s.nOrig {
			formula = append(formula, cl)
		} else {
			lemmas = append(lemmas, cl)
		}
	}
	return formula, lemmas
}
