package transform

import (
	"argo/internal/ir"
)

// FissionNest distributes a perfect loop nest over the statements of its
// innermost body ("loop distribution", the fine-grain task decomposition
// transformation of §III-C). It returns the replacement loops (each a full
// copy of the nest around one legal statement group) and true, or nil and
// false when no legal split exists.
//
// Scalar values flowing across a split boundary are handled by redundant
// computation: the defining scalar assignments are replicated into the
// consuming group (cf. Pugh & Rosser, iteration-space slicing — the paper
// notes such redundancy is acceptable, even desirable, for predictability).
func FissionNest(loop *ir.For) ([]*ir.For, bool) {
	nest := perfectNest(loop)
	units := nest.body
	if len(units) < 2 {
		return nil, false
	}
	if hasLooseJumps(units) {
		return nil, false
	}
	ivars := nest.ivarSet()
	// Compute cut points: boundary p is legal if prefix and suffix may be
	// separated. Scalars defined in the prefix and read in the suffix must
	// be replicable pure scalar assignments.
	var groups [][]ir.Stmt
	cur := []ir.Stmt{units[0]}
	for p := 1; p < len(units); p++ {
		prefix := units[:p]
		suffix := units[p:]
		// Only cut where both sides do productive (memory-writing) work;
		// otherwise fission just manufactures scalar-recomputation sweeps.
		if !productive(cur) || !productive(suffix) {
			cur = append(cur, units[p])
			continue
		}
		if boundaryLegal(units, prefix, suffix, ivars) {
			group := append(replicatedDefs(prefix, suffix, ivars), cur...)
			groups = append(groups, group)
			cur = nil
		}
		cur = append(cur, units[p])
	}
	if len(groups) == 0 {
		return nil, false
	}
	lastPrefixLen := len(units) - len(cur)
	groups = append(groups, append(replicatedDefs(units[:lastPrefixLen], units[lastPrefixLen:], ivars), cur...))
	// Rebuild one nest per group.
	out := make([]*ir.For, len(groups))
	for i, g := range groups {
		out[i] = rebuildNest(nest.loops, g)
	}
	return out, true
}

// productive reports whether a region performs any matrix writes.
func productive(stmts []ir.Stmt) bool {
	return !ir.ComputeUses(stmts).MatWrites().Empty()
}

// boundaryLegal checks whether the nest may be distributed between prefix
// and suffix.
func boundaryLegal(whole, prefix, suffix []ir.Stmt, ivars map[*ir.Var]bool) bool {
	uA := ir.ComputeUses(prefix)
	uB := ir.ComputeUses(suffix)
	if !reorderLegal(whole, &uA, &uB, ivars) {
		return false
	}
	// Replicated defs for cross-boundary scalars must exist and be pure.
	needed := crossScalars(prefix, suffix, ivars)
	defs := scalarDefs(prefix)
	for _, v := range needed {
		idx, ok := defs[v]
		if !ok {
			return false
		}
		// The defining assignment must be a top-level AssignScalar whose
		// own scalar inputs are in turn replicable (checked transitively
		// below via closure over defs) and whose matrix reads are
		// iteration-private or read-only in the nest.
		as := prefix[idx].(*ir.AssignScalar)
		if !replicableExpr(as.Src, whole, &uA, &uB, ivars, defs, prefix, map[*ir.Var]bool{}) {
			return false
		}
	}
	// The suffix must not write scalars that the prefix reads (the prefix
	// of a later sweep would see the final value instead of the original).
	defined := ir.DefinedBeforeUse(prefix)
	return uB.ScalWrite().EachCommon(uA.ScalReads(), func(v *ir.Var) bool { return ivars[v] || defined.Has(v) })
}

// crossScalars returns scalars read by the suffix that the prefix writes
// (excluding induction variables and scalars the suffix itself defines
// before use).
func crossScalars(prefix, suffix []ir.Stmt, ivars map[*ir.Var]bool) []*ir.Var {
	writes := ir.ComputeUses(prefix).ScalWrite()
	defined := ir.DefinedBeforeUse(suffix)
	var out []*ir.Var
	ir.ComputeUses(suffix).ScalReads().EachCommon(writes, func(v *ir.Var) bool {
		if !ivars[v] && !defined.Has(v) {
			out = append(out, v)
		}
		return true
	})
	return out
}

// scalarDefs maps each scalar to the index of its LAST top-level
// AssignScalar definition in stmts, provided that is the only kind of
// write to it.
func scalarDefs(stmts []ir.Stmt) map[*ir.Var]int {
	defs := map[*ir.Var]int{}
	bad := map[*ir.Var]bool{}
	for i, s := range stmts {
		switch st := s.(type) {
		case *ir.AssignScalar:
			defs[st.Dst] = i
		default:
			ir.ComputeUses([]ir.Stmt{st}).ScalWrite().Each(func(v *ir.Var) bool {
				bad[v] = true
				return true
			})
		}
	}
	for v := range bad {
		delete(defs, v)
	}
	return defs
}

// replicableExpr reports whether an expression may be re-evaluated in a
// later sweep of the nest with the same result: its matrix reads must be
// read-only in the whole nest or iteration-private, and its scalar reads
// must be induction variables or themselves replicable definitions.
func replicableExpr(e ir.Expr, whole []ir.Stmt, uA, uB *ir.UseSets, ivars map[*ir.Var]bool, defs map[*ir.Var]int, prefix []ir.Stmt, visiting map[*ir.Var]bool) bool {
	ok := true
	ir.WalkExprs(e, func(sub ir.Expr) {
		if !ok {
			return
		}
		switch x := sub.(type) {
		case *ir.Index:
			if uA.MatWrites().Has(x.V) || uB.MatWrites().Has(x.V) {
				if !fullRankPrivate(whole, x.V, ivars) {
					ok = false
				}
			}
		case *ir.VarRef:
			v := x.V
			if ivars[v] || visiting[v] {
				if visiting[v] {
					ok = false
				}
				return
			}
			if uA.ScalWrite().Has(v) {
				idx, has := defs[v]
				if !has {
					ok = false
					return
				}
				visiting[v] = true
				if !replicableExpr(prefix[idx].(*ir.AssignScalar).Src, whole, uA, uB, ivars, defs, prefix, visiting) {
					ok = false
				}
				delete(visiting, v)
			}
		}
	})
	return ok
}

// replicatedDefs returns clones of the prefix's scalar assignments that
// the suffix needs, in original order.
func replicatedDefs(prefix, suffix []ir.Stmt, ivars map[*ir.Var]bool) []ir.Stmt {
	if len(prefix) == 0 {
		return nil
	}
	needed := crossScalars(prefix, suffix, ivars)
	if len(needed) == 0 {
		return nil
	}
	defs := scalarDefs(prefix)
	// Transitive closure of needed scalars through their definitions.
	include := map[int]bool{}
	var pull func(v *ir.Var)
	pull = func(v *ir.Var) {
		idx, ok := defs[v]
		if !ok || include[idx] {
			return
		}
		include[idx] = true
		ir.ExprUses(prefix[idx].(*ir.AssignScalar).Src).ScalReads().Each(func(dep *ir.Var) bool {
			pull(dep)
			return true
		})
	}
	for _, v := range needed {
		pull(v)
	}
	var out []ir.Stmt
	for i, s := range prefix {
		if include[i] {
			out = append(out, ir.CloneStmt(s))
		}
	}
	return out
}

// rebuildNest clones the loop headers of nest around a new innermost body.
func rebuildNest(loops []*ir.For, body []ir.Stmt) *ir.For {
	cur := ir.CloneStmts(body)
	var top *ir.For
	for i := len(loops) - 1; i >= 0; i-- {
		l := loops[i]
		top = &ir.For{
			IVar:  l.IVar,
			Lo:    ir.CloneExpr(l.Lo),
			Step:  ir.CloneExpr(l.Step),
			Hi:    ir.CloneExpr(l.Hi),
			Trip:  l.Trip,
			Body:  cur,
			Label: l.Label,
		}
		cur = []ir.Stmt{top}
	}
	return top
}

// FissionAll applies FissionNest to every top-level loop of the entry
// function, replacing splittable loops with their distributed forms.
// It returns the number of additional top-level loops created.
func FissionAll(prog *ir.Program) int {
	var out []ir.Stmt
	created := 0
	for _, s := range prog.Entry.Body {
		loop, ok := s.(*ir.For)
		if !ok {
			out = append(out, s)
			continue
		}
		parts, did := FissionNest(loop)
		if !did {
			out = append(out, s)
			continue
		}
		created += len(parts) - 1
		for _, p := range parts {
			out = append(out, p)
		}
	}
	prog.Entry.Body = out
	return created
}
