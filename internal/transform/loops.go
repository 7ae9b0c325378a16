package transform

import (
	"math"

	"argo/internal/ir"
)

// Unroll replaces loop with an unrolled version of factor k (plus a
// remainder loop when the trip count is not divisible by k). It returns
// the replacement statements and true, or nil and false when the loop is
// not unrollable (non-constant bounds, jumps binding to it, or a body
// writing the induction variable).
func Unroll(loop *ir.For, k int) ([]ir.Stmt, bool) {
	if k < 2 || loop.Trip == 0 {
		return nil, false
	}
	lo, step, hi, ok := constBounds(loop)
	if !ok || step == 0 {
		return nil, false
	}
	if hasLooseJumps(loop.Body) || writesVar(loop.Body, loop.IVar) {
		return nil, false
	}
	trip := loop.Trip
	if k > trip {
		k = trip
	}
	mainTrips := trip / k
	rem := trip - mainTrips*k
	var out []ir.Stmt
	if mainTrips > 0 {
		var body []ir.Stmt
		for t := 0; t < k; t++ {
			clone := ir.CloneStmts(loop.Body)
			if t > 0 {
				ivExpr := &ir.Bin{Op: ir.OpAdd, X: &ir.VarRef{V: loop.IVar}, Y: &ir.Const{Val: float64(t) * step}}
				clone = ir.SubstituteVarStmts(clone, loop.IVar, ivExpr)
			}
			body = append(body, clone...)
		}
		mainHi := lo + float64(mainTrips*k-1)*step
		out = append(out, &ir.For{
			IVar:  loop.IVar,
			Lo:    &ir.Const{Val: lo},
			Step:  &ir.Const{Val: step * float64(k)},
			Hi:    &ir.Const{Val: mainHi},
			Trip:  mainTrips,
			Body:  body,
			Label: loop.Label,
		})
	}
	if rem > 0 {
		remLo := lo + float64(mainTrips*k)*step
		out = append(out, &ir.For{
			IVar: loop.IVar,
			Lo:   &ir.Const{Val: remLo},
			Step: &ir.Const{Val: step},
			Hi:   &ir.Const{Val: hi},
			Trip: rem,
			Body: ir.CloneStmts(loop.Body),
		})
	}
	return out, true
}

// IndexSetSplit splits loop into two consecutive loops covering the first
// m iterations and the remaining ones (index-set splitting, ref [10] of
// the paper). Always semantics-preserving; returns false when bounds are
// not constant or m is out of range.
func IndexSetSplit(loop *ir.For, m int) ([]*ir.For, bool) {
	if m <= 0 || m >= loop.Trip {
		return nil, false
	}
	lo, step, hi, ok := constBounds(loop)
	if !ok || step == 0 {
		return nil, false
	}
	firstHi := lo + float64(m-1)*step
	secondLo := lo + float64(m)*step
	first := &ir.For{
		IVar: loop.IVar, Lo: &ir.Const{Val: lo}, Step: &ir.Const{Val: step},
		Hi: &ir.Const{Val: firstHi}, Trip: m, Body: ir.CloneStmts(loop.Body),
		Label: loop.Label,
	}
	second := &ir.For{
		IVar: loop.IVar, Lo: &ir.Const{Val: secondLo}, Step: &ir.Const{Val: step},
		Hi: &ir.Const{Val: hi}, Trip: loop.Trip - m, Body: ir.CloneStmts(loop.Body),
	}
	return []*ir.For{first, second}, true
}

// Fuse merges two adjacent loops with identical constant bounds into one
// ("loop fusion"). Legality: running b's iteration i immediately after
// a's iteration i (instead of after all of a) is safe when every
// conflicting matrix variable is iteration-private, and no scalar value
// flows from a to b across iterations.
func Fuse(a, b *ir.For) (*ir.For, bool) {
	loA, stA, hiA, okA := constBounds(a)
	loB, stB, hiB, okB := constBounds(b)
	if !okA || !okB || loA != loB || stA != stB || hiA != hiB || a.Trip != b.Trip {
		return nil, false
	}
	if hasLooseJumps(a.Body) || hasLooseJumps(b.Body) {
		return nil, false
	}
	bodyB := b.Body
	if a.IVar != b.IVar {
		if writesVar(b.Body, b.IVar) || writesVar(a.Body, a.IVar) {
			return nil, false
		}
		bodyB = ir.SubstituteVarStmts(bodyB, b.IVar, &ir.VarRef{V: a.IVar})
	}
	whole := append(append([]ir.Stmt{}, a.Body...), bodyB...)
	ivars := map[*ir.Var]bool{a.IVar: true}
	// Include shared inner perfect-nest ivars for the privacy test.
	for _, l := range perfectNest(a).loops {
		ivars[l.IVar] = true
	}
	for _, l := range perfectNest(b).loops {
		ivars[l.IVar] = true
	}
	uA := ir.ComputeUses(a.Body)
	uB := ir.ComputeUses(bodyB)
	if !reorderLegal(whole, &uA, &uB, ivars) {
		return nil, false
	}
	// No scalar dataflow between the two bodies (beyond privatizable).
	definedA, definedB := ir.DefinedBeforeUse(a.Body), ir.DefinedBeforeUse(bodyB)
	flowFree := uA.ScalWrite().Each(func(v *ir.Var) bool {
		if ivars[v] || !(uB.ScalReads().Has(v) && !definedB.Has(v)) && !uB.ScalWrite().Has(v) {
			return true
		}
		return uB.ScalWrite().Has(v) && definedB.Has(v) && !uA.ScalReads().Has(v)
	}) && uB.ScalWrite().EachCommon(uA.ScalReads(), func(v *ir.Var) bool {
		return ivars[v] || definedA.Has(v)
	})
	if !flowFree {
		return nil, false
	}
	return &ir.For{
		IVar: a.IVar, Lo: ir.CloneExpr(a.Lo), Step: ir.CloneExpr(a.Step),
		Hi: ir.CloneExpr(a.Hi), Trip: a.Trip,
		Body:  append(ir.CloneStmts(a.Body), ir.CloneStmts(bodyB)...),
		Label: a.Label,
	}, true
}

// FuseAll greedily fuses adjacent fusable top-level loops of the entry
// function and returns the number of fusions performed.
func FuseAll(prog *ir.Program) int {
	fused := 0
	body := prog.Entry.Body
	var out []ir.Stmt
	for i := 0; i < len(body); i++ {
		cur, ok := body[i].(*ir.For)
		if !ok {
			out = append(out, body[i])
			continue
		}
		for i+1 < len(body) {
			next, ok2 := body[i+1].(*ir.For)
			if !ok2 {
				break
			}
			merged, did := Fuse(cur, next)
			if !did {
				break
			}
			cur = merged
			fused++
			i++
		}
		out = append(out, cur)
	}
	prog.Entry.Body = out
	return fused
}

// Tile rewrites a perfect 2-deep nest with unit steps into a tiled 4-deep
// nest with tile sizes ti x tj. Legality: every matrix variable written in
// the nest must be iteration-private (full-rank index signature), making
// all iteration reorderings valid. Returns false otherwise.
func Tile(loop *ir.For, ti, tj int, prog *ir.Program) (*ir.For, bool) {
	if ti < 1 || tj < 1 {
		return nil, false
	}
	nest := perfectNest(loop)
	if len(nest.loops) < 2 {
		return nil, false
	}
	outer, inner := nest.loops[0], nest.loops[1]
	// Only tile the outermost two loops; deeper nests keep their body.
	body := inner.Body
	loI, stI, hiI, okI := constBounds(outer)
	loJ, stJ, hiJ, okJ := constBounds(inner)
	if !okI || !okJ || stI != 1 || stJ != 1 {
		return nil, false
	}
	if hasLooseJumps(body) {
		return nil, false
	}
	ivars := map[*ir.Var]bool{}
	for _, l := range nest.loops {
		ivars[l.IVar] = true
	}
	uses := ir.ComputeUses(body)
	if !uses.MatWrites().Each(func(v *ir.Var) bool { return fullRankPrivate(body, v, ivars) }) {
		return nil, false
	}
	// Scalar accumulations across iterations also block tiling.
	defined := ir.DefinedBeforeUse(body)
	if !uses.ScalWrite().EachCommon(uses.ScalReads(), func(v *ir.Var) bool { return ivars[v] || defined.Has(v) }) {
		return nil, false
	}
	iiV := prog.FreshVar("%ii", 1, 1, true)
	jjV := prog.FreshVar("%jj", 1, 1, true)
	minExpr := func(a ir.Expr, b float64) ir.Expr {
		return &ir.Intrinsic{Name: "min", Args: []ir.Expr{a, &ir.Const{Val: b}}}
	}
	innerJ := &ir.For{
		IVar: inner.IVar,
		Lo:   &ir.VarRef{V: jjV},
		Step: &ir.Const{Val: 1},
		Hi:   minExpr(&ir.Bin{Op: ir.OpAdd, X: &ir.VarRef{V: jjV}, Y: &ir.Const{Val: float64(tj - 1)}}, hiJ),
		Trip: tj,
		Body: ir.CloneStmts(body),
	}
	innerI := &ir.For{
		IVar: outer.IVar,
		Lo:   &ir.VarRef{V: iiV},
		Step: &ir.Const{Val: 1},
		Hi:   minExpr(&ir.Bin{Op: ir.OpAdd, X: &ir.VarRef{V: iiV}, Y: &ir.Const{Val: float64(ti - 1)}}, hiI),
		Trip: ti,
		Body: []ir.Stmt{innerJ},
	}
	tileJ := &ir.For{
		IVar: jjV, Lo: &ir.Const{Val: loJ}, Step: &ir.Const{Val: float64(tj)},
		Hi: &ir.Const{Val: hiJ}, Trip: ceilDiv(inner.Trip, tj),
		Body: []ir.Stmt{innerI},
	}
	tileI := &ir.For{
		IVar: iiV, Lo: &ir.Const{Val: loI}, Step: &ir.Const{Val: float64(ti)},
		Hi: &ir.Const{Val: hiI}, Trip: ceilDiv(outer.Trip, ti),
		Body:  []ir.Stmt{tileJ},
		Label: loop.Label,
	}
	return tileI, true
}

func ceilDiv(a, b int) int { return int(math.Ceil(float64(a) / float64(b))) }
