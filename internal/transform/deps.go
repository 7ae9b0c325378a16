// Package transform implements the predictability-enhancing,
// WCET-oriented program transformations of the ARGO tool-chain (paper
// §II-B and §III-C): loop fission (distribution), loop fusion, loop
// unrolling, index-set splitting (Griebl/Feautrier/Lengauer), loop tiling,
// constant folding, and WCET-directed scratchpad promotion
// (Chattopadhyay/Roychoudhury-style SPM allocation).
//
// All structural transformations are semantics-preserving; the test suite
// verifies each one against the IR interpreter on randomized inputs.
// Legality uses a conservative dependence test: a matrix variable written
// inside a loop nest blocks reordering unless every access to it in the
// nest uses one fixed index vector made of the nest's induction variables
// (full-rank, zero-offset), which makes each iteration's footprint
// private. Scalar dependences are resolved by privatization: a scalar
// that the reading region assigns before any read (ir.DefinedBeforeUse,
// the summary the task graph's scalar privatization uses too) carries
// no value across iterations or sweeps. Fission may instead replicate the
// scalar's defining assignment.
package transform

import (
	"argo/internal/ir"
)

// nestInfo describes a perfect loop nest: the chain of loops from the
// outermost one inward while each body is exactly one nested For, plus the
// innermost body.
type nestInfo struct {
	loops []*ir.For
	body  []ir.Stmt
}

// perfectNest unwraps loop into its maximal perfect nest.
func perfectNest(loop *ir.For) nestInfo {
	loops := []*ir.For{loop}
	body := loop.Body
	for len(body) == 1 {
		inner, ok := body[0].(*ir.For)
		if !ok {
			break
		}
		loops = append(loops, inner)
		body = inner.Body
	}
	return nestInfo{loops: loops, body: body}
}

// ivarSet returns the set of induction variables of the nest.
func (n nestInfo) ivarSet() map[*ir.Var]bool {
	s := make(map[*ir.Var]bool, len(n.loops))
	for _, l := range n.loops {
		s[l.IVar] = true
	}
	return s
}

// fullRankPrivate reports whether every access (read or write) to matrix
// variable v inside stmts uses one single index vector whose components
// are distinct induction variables from ivars (no offsets, no repeats).
// Under this condition each iteration of the nest touches a private
// element of v, so any iteration reordering or distribution is legal with
// respect to v.
func fullRankPrivate(stmts []ir.Stmt, v *ir.Var, ivars map[*ir.Var]bool) bool {
	var sig []*ir.Var
	ok := true
	record := func(idx []ir.Expr) {
		if !ok {
			return
		}
		cur := make([]*ir.Var, len(idx))
		seen := map[*ir.Var]bool{}
		for i, e := range idx {
			ref, isRef := e.(*ir.VarRef)
			if !isRef || !ivars[ref.V] || seen[ref.V] {
				ok = false
				return
			}
			seen[ref.V] = true
			cur[i] = ref.V
		}
		if sig == nil {
			sig = cur
			return
		}
		if len(sig) != len(cur) {
			ok = false
			return
		}
		for i := range sig {
			if sig[i] != cur[i] {
				ok = false
				return
			}
		}
	}
	var visitExpr func(e ir.Expr)
	visitExpr = func(e ir.Expr) {
		ir.WalkExprs(e, func(sub ir.Expr) {
			if ix, isIx := sub.(*ir.Index); isIx && ix.V == v {
				record(ix.Idx)
			}
		})
	}
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		for _, e := range ir.StmtExprs(s) {
			visitExpr(e)
		}
		if st, isStore := s.(*ir.Store); isStore && st.Dst == v {
			record(st.Idx)
		}
		return ok
	})
	return ok
}

// reorderLegal reports whether regions a and b inside a nest may be
// separated into distinct sweeps of the nest (or have their iterations
// reordered against each other): every matrix variable with a
// dependence between them (written in one, accessed in the other) must
// be iteration-private under the nest's induction variables. Scalar
// conflicts must be resolved by the caller (replication or
// privatization).
func reorderLegal(whole []ir.Stmt, a, b *ir.UseSets, ivars map[*ir.Var]bool) bool {
	private := func(v *ir.Var) bool { return fullRankPrivate(whole, v, ivars) }
	return a.MatWrites().EachCommon(b.MatReads(), private) &&
		a.MatWrites().EachCommon(b.MatWrites(), private) &&
		b.MatWrites().EachCommon(a.MatReads(), func(v *ir.Var) bool {
			// Variables both regions write were checked above.
			return a.MatWrites().Has(v) || private(v)
		})
}

// writesVar reports whether stmts may write scalar v.
func writesVar(stmts []ir.Stmt, v *ir.Var) bool {
	found := false
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.AssignScalar:
			if st.Dst == v {
				found = true
			}
		case *ir.For:
			if st.IVar == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasLooseJumps reports whether stmts contain a Break or Continue that
// would bind to an enclosing loop (i.e., one not nested inside a loop
// within stmts themselves).
func hasLooseJumps(stmts []ir.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Break, *ir.Continue:
			return true
		case *ir.If:
			if hasLooseJumps(st.Then) || hasLooseJumps(st.Else) {
				return true
			}
		case *ir.For, *ir.While:
			// Jumps inside nested loops bind to those loops.
		}
	}
	return false
}

// constOf extracts a compile-time constant from e.
func constOf(e ir.Expr) (float64, bool) {
	c, ok := e.(*ir.Const)
	if !ok {
		return 0, false
	}
	return c.Val, true
}

// constBounds extracts (lo, step, hi) when all three loop bounds are
// constants.
func constBounds(l *ir.For) (lo, step, hi float64, ok bool) {
	lo, ok1 := constOf(l.Lo)
	step, ok2 := constOf(l.Step)
	hi, ok3 := constOf(l.Hi)
	return lo, step, hi, ok1 && ok2 && ok3
}
