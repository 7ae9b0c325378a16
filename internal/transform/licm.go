package transform

import (
	"argo/internal/ir"
)

// HoistInvariants performs loop-invariant code motion on scalar
// assignments: a top-level assignment in a loop body whose right-hand
// side depends on nothing the loop writes is moved in front of the loop,
// removing its cost from the trip-count multiplier (a direct WCET
// reduction on the deterministic core model). Returns the number of
// statements hoisted.
//
// Hoisting conditions (all checked):
//   - the loop has at least one guaranteed iteration (static Trip >= 1)
//     and contains no loose break/continue,
//   - the assignment's source reads no scalar written anywhere in the
//     loop (including the induction variable) and no matrix the loop
//     writes,
//   - its destination is written nowhere else in the loop and is not
//     read by any statement preceding the assignment.
func HoistInvariants(prog *ir.Program) int {
	n := 0
	prog.Entry.Body = hoistBlock(prog.Entry.Body, &n)
	return n
}

func hoistBlock(stmts []ir.Stmt, n *int) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.For:
			st.Body = hoistBlock(st.Body, n)
			hoisted, rest := hoistFromLoop(st)
			*n += len(hoisted)
			out = append(out, hoisted...)
			st.Body = rest
			out = append(out, st)
		case *ir.While:
			st.Body = hoistBlock(st.Body, n)
			out = append(out, st)
		case *ir.If:
			st.Then = hoistBlock(st.Then, n)
			st.Else = hoistBlock(st.Else, n)
			out = append(out, st)
		default:
			out = append(out, s)
		}
	}
	return out
}

// hoistFromLoop extracts hoistable assignments from the loop body.
func hoistFromLoop(loop *ir.For) (hoisted, rest []ir.Stmt) {
	if loop.Trip < 1 || hasLooseJumps(loop.Body) {
		return nil, loop.Body
	}
	bodyUses := ir.ComputeUses(loop.Body)
	// Count scalar writes per variable to enforce single assignment.
	writeCount := map[*ir.Var]int{}
	ir.WalkStmts(loop.Body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.AssignScalar:
			writeCount[st.Dst]++
		case *ir.For:
			writeCount[st.IVar] += 2 // loops rebind their ivar repeatedly
		}
		return true
	})
	// With its only write here, an assignment's destination is read by
	// no earlier statement exactly when the body defines it before use.
	defined := ir.DefinedBeforeUse(loop.Body)
	for _, s := range loop.Body {
		as, movable := s.(*ir.AssignScalar)
		movable = movable && writeCount[as.Dst] == 1 && defined.Has(as.Dst)
		if movable {
			ir.WalkExprs(as.Src, func(e ir.Expr) {
				switch x := e.(type) {
				case *ir.VarRef:
					movable = movable && x.V != loop.IVar && !bodyUses.ScalWrite().Has(x.V)
				case *ir.Index:
					movable = movable && !bodyUses.MatWrites().Has(x.V)
				}
			})
		}
		if movable {
			hoisted = append(hoisted, as)
		} else {
			rest = append(rest, s)
		}
	}
	return hoisted, rest
}
