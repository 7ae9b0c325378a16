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
	writtenScalars := map[*ir.Var]bool{loop.IVar: true}
	for v := range bodyUses.ScalWrite {
		writtenScalars[v] = true
	}
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
	readBefore := map[*ir.Var]bool{}
	for _, s := range loop.Body {
		as, isAssign := s.(*ir.AssignScalar)
		movable := false
		if isAssign && writeCount[as.Dst] == 1 && !readBefore[as.Dst] {
			srcUses := ir.NewUseSets()
			srcUses.AddExprUses(as.Src)
			movable = true
			for v := range srcUses.ScalReads {
				if writtenScalars[v] {
					movable = false
				}
			}
			for v := range srcUses.MatReads {
				if bodyUses.MatWrites[v] {
					movable = false
				}
			}
		}
		if movable {
			hoisted = append(hoisted, as)
		} else {
			rest = append(rest, s)
		}
		// Track reads occurring from this statement on.
		u := ir.ComputeUses([]ir.Stmt{s})
		for v := range u.ScalReads {
			readBefore[v] = true
		}
	}
	return hoisted, rest
}
