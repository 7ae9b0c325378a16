package transform

import (
	"argo/internal/ir"
)

// ElideDeadInits removes top-level initialization sweeps (the loops
// lowered from zeros()/ones()) whose matrix is fully overwritten by a
// later unconditional full-cover writer before any element is read.
// Every element the init wrote is dead, so the sweep is pure WCET waste —
// a real saving since the lowering materializes one fill per allocated
// buffer. Returns the number of sweeps removed.
//
// Cover is decided structurally (an under-approximation, as soundness
// requires): a full-cover writer is a unit-step 2-deep nest over exactly
// 1..Rows x 1..Cols containing an unconditional store v[i, j] at the
// innermost level.
func ElideDeadInits(prog *ir.Program) int {
	body := prog.Entry.Body
	removed := 0
	var out []ir.Stmt
	for i, s := range body {
		v, isFill := fillTarget(s)
		if !isFill || !deadBeforeRewrite(body[i+1:], v) {
			out = append(out, s)
			continue
		}
		removed++
	}
	prog.Entry.Body = out
	return removed
}

// fillTarget reports whether s is a pure initialization sweep: a
// full-cover writer of exactly one matrix that reads no matrices and
// leaves no live scalars behind.
func fillTarget(s ir.Stmt) (*ir.Var, bool) {
	uses := ir.ComputeUses([]ir.Stmt{s})
	if uses.MatWrites().Len() != 1 || !uses.MatReads().Empty() {
		return nil, false
	}
	var v *ir.Var
	uses.MatWrites().Each(func(w *ir.Var) bool {
		v = w
		return false
	})
	if !uses.ScalWrite().Each(func(sc *ir.Var) bool { return !sc.Result }) {
		return nil, false
	}
	if !fullCoverWriter(s, v) {
		return nil, false
	}
	return v, true
}

// fullCoverWriter matches the canonical dense-sweep shape:
//
//	for i = 1:1:Rows { ... for j = 1:1:Cols { ...; v[i, j] = e; ... } ... }
//
// with every construct on the store's path an unconditional constant-
// bound For. This definitely writes every element of v.
func fullCoverWriter(s ir.Stmt, v *ir.Var) bool {
	outer, ok := s.(*ir.For)
	if !ok || !unitRange(outer, v.Rows) {
		return false
	}
	for _, inner := range topLevelFors(outer.Body) {
		if !unitRange(inner, v.Cols) {
			continue
		}
		for _, bs := range inner.Body {
			st, isStore := bs.(*ir.Store)
			if !isStore || st.Dst != v || len(st.Idx) != 2 {
				continue
			}
			r1, ok1 := st.Idx[0].(*ir.VarRef)
			r2, ok2 := st.Idx[1].(*ir.VarRef)
			if ok1 && ok2 && r1.V == outer.IVar && r2.V == inner.IVar {
				return true
			}
		}
	}
	return false
}

// unitRange reports whether loop iterates exactly 1..n with step 1.
func unitRange(loop *ir.For, n int) bool {
	lo, step, hi, ok := constBounds(loop)
	return ok && lo == 1 && step == 1 && hi == float64(n) && loop.Trip == n
}

// topLevelFors returns the For statements directly in stmts.
func topLevelFors(stmts []ir.Stmt) []*ir.For {
	var out []*ir.For
	for _, s := range stmts {
		if f, ok := s.(*ir.For); ok {
			out = append(out, f)
		}
	}
	return out
}

// deadBeforeRewrite reports whether, scanning forward, v is fully
// rewritten by an unconditional full-cover writer before any read of v.
func deadBeforeRewrite(rest []ir.Stmt, v *ir.Var) bool {
	for _, s := range rest {
		uses := ir.ComputeUses([]ir.Stmt{s})
		if uses.MatReads().Has(v) {
			return false
		}
		if uses.MatWrites().Has(v) {
			// A full-cover rewrite kills the init; any other writer may
			// leave init values live for later readers.
			return fullCoverWriter(s, v)
		}
	}
	// Never read nor rewritten: dead unless it is a program result.
	return !v.Result
}
