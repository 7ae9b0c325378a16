package transform

import (
	"argo/internal/ir"

	"argo/internal/scil"
)

// FoldConstants simplifies the entry function in place: constant
// subexpressions are folded, if-statements with constant conditions are
// flattened, and zero-trip loops are removed. Returns the number of nodes
// simplified.
func FoldConstants(prog *ir.Program) int {
	n := 0
	prog.Entry.Body = foldBlock(prog.Entry.Body, &n)
	return n
}

func foldBlock(stmts []ir.Stmt, n *int) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.AssignScalar:
			st.Src = foldExpr(st.Src, n)
			out = append(out, st)
		case *ir.Store:
			for i := range st.Idx {
				st.Idx[i] = foldExpr(st.Idx[i], n)
			}
			st.Src = foldExpr(st.Src, n)
			out = append(out, st)
		case *ir.For:
			st.Lo = foldExpr(st.Lo, n)
			st.Step = foldExpr(st.Step, n)
			st.Hi = foldExpr(st.Hi, n)
			if st.Trip == 0 {
				*n++
				continue // drop zero-trip loop
			}
			st.Body = foldBlock(st.Body, n)
			out = append(out, st)
		case *ir.While:
			st.Cond = foldExpr(st.Cond, n)
			st.Body = foldBlock(st.Body, n)
			out = append(out, st)
		case *ir.If:
			st.Cond = foldExpr(st.Cond, n)
			if c, ok := constOf(st.Cond); ok {
				*n++
				if c != 0 {
					out = append(out, foldBlock(st.Then, n)...)
				} else {
					out = append(out, foldBlock(st.Else, n)...)
				}
				continue
			}
			st.Then = foldBlock(st.Then, n)
			st.Else = foldBlock(st.Else, n)
			out = append(out, st)
		default:
			out = append(out, s)
		}
	}
	return out
}

func foldExpr(e ir.Expr, n *int) ir.Expr {
	switch x := e.(type) {
	case *ir.Bin:
		x.X = foldExpr(x.X, n)
		x.Y = foldExpr(x.Y, n)
		a, okA := constOf(x.X)
		b, okB := constOf(x.Y)
		if okA && okB {
			*n++
			return &ir.Const{Val: ir.FoldBin(x.Op, a, b)}
		}
		// Algebraic identities that keep WCET honest (fewer ops is always
		// at least as fast on the deterministic core model).
		switch {
		case x.Op == ir.OpAdd && okB && b == 0:
			*n++
			return x.X
		case x.Op == ir.OpAdd && okA && a == 0:
			*n++
			return x.Y
		case x.Op == ir.OpMul && okB && b == 1:
			*n++
			return x.X
		case x.Op == ir.OpMul && okA && a == 1:
			*n++
			return x.Y
		case x.Op == ir.OpSub && okB && b == 0:
			*n++
			return x.X
		}
		return x
	case *ir.Un:
		x.X = foldExpr(x.X, n)
		if a, ok := constOf(x.X); ok {
			*n++
			return &ir.Const{Val: ir.FoldUn(x.Op, a)}
		}
		return x
	case *ir.Index:
		for i := range x.Idx {
			x.Idx[i] = foldExpr(x.Idx[i], n)
		}
		return x
	case *ir.Intrinsic:
		allConst := true
		for i := range x.Args {
			x.Args[i] = foldExpr(x.Args[i], n)
			if _, ok := constOf(x.Args[i]); !ok {
				allConst = false
			}
		}
		if allConst {
			if b := scil.LookupBuiltin(x.Name); b != nil && len(x.Args) >= b.MinArgs && len(x.Args) <= b.MaxArgs {
				vals := make([]float64, len(x.Args))
				for i, a := range x.Args {
					vals[i], _ = constOf(a)
				}
				if v, err := b.Call(vals); err == nil {
					*n++
					return &ir.Const{Val: v}
				}
			}
		}
		return x
	default:
		return e
	}
}
