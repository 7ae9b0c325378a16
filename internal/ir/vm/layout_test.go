package vm

import (
	"math"
	"testing"

	"argo/internal/ir"
)

// TestRegisterLayout pins the register file's layout: every variable
// first (the registered table, the signature, then unregistered ones the
// statements reach), then one register per distinct literal, bit-exact,
// in first-occurrence order over the entry body and then each region.
func TestRegisterLayout(t *testing.T) {
	p := &ir.Program{}
	x := p.NewVar(&ir.Var{Name: "x", Scalar: true, Param: true})
	r := p.NewVar(&ir.Var{Name: "r", Scalar: true, Result: true})
	i := p.NewVar(&ir.Var{Name: "i", Scalar: true})
	m := p.NewVar(&ir.Var{Name: "m", Rows: 2, Cols: 2})
	stray := &ir.Var{Name: "s", Scalar: true} // not in the table
	num := func(f float64) ir.Expr { return &ir.Const{Val: f} }
	ref := func(v *ir.Var) ir.Expr { return &ir.VarRef{V: v} }
	p.Entry = &ir.Func{
		Name: "f", Params: []*ir.Var{x}, Results: []*ir.Var{r},
		Body: []ir.Stmt{
			&ir.AssignScalar{Dst: r, Src: num(2)},
			&ir.For{IVar: i, Lo: num(1), Step: num(1), Hi: num(3), Trip: 3, Body: []ir.Stmt{
				&ir.Store{Dst: m, Idx: []ir.Expr{num(1), ref(i)}, Src: &ir.Bin{Op: ir.OpAdd, X: ref(x), Y: num(0.5)}},
			}},
		},
	}
	region := []ir.Stmt{
		&ir.AssignScalar{Dst: stray, Src: num(math.Copysign(0, -1))},
		&ir.AssignScalar{Dst: r, Src: &ir.Bin{Op: ir.OpAdd, X: num(2), Y: num(7)}},
		&ir.AssignScalar{Dst: r, Src: num(0)},
	}
	cp, err := CompileRegions(p, [][]ir.Stmt{region})
	if err != nil {
		t.Fatal(err)
	}
	if cp.nVarRegs != 4 || cp.constBase != 4 {
		t.Errorf("nVarRegs %d, constBase %d: want 4 scalar registers (x, r, i, s) before the constants", cp.nVarRegs, cp.constBase)
	}
	want := []float64{2, 1, 3, 0.5, math.Copysign(0, -1), 7, 0}
	if len(cp.constVals) != len(want) {
		t.Fatalf("constants %v, want %v", cp.constVals, want)
	}
	for k, v := range want {
		if math.Float64bits(cp.constVals[k]) != math.Float64bits(v) {
			t.Fatalf("constants %v, want %v in first-occurrence order", cp.constVals, want)
		}
	}
	if len(cp.mats) != 1 || cp.mats[0].v != m {
		t.Errorf("matrices %v, want [m]", cp.mats)
	}
}
