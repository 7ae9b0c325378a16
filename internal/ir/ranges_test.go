package ir

import (
	"math"
	"testing"
)

func TestIntervalBasics(t *testing.T) {
	a := Interval{Lo: 1, Hi: 8}
	b := Interval{Lo: 9, Hi: 16}
	c := Interval{Lo: 8, Hi: 12}
	if !a.Disjoint(b) || !b.Disjoint(a) {
		t.Fatal("1..8 and 9..16 are disjoint")
	}
	if a.Disjoint(c) {
		t.Fatal("1..8 and 8..12 overlap at 8")
	}
	if !(Interval{Lo: 1, Hi: 0}).Disjoint(a) {
		t.Fatal("empty is disjoint from everything")
	}
	u := a.union(b)
	if u.Lo != 1 || u.Hi != 16 {
		t.Fatalf("union: %+v", u)
	}
}

func TestExprIntervalArithmetic(t *testing.T) {
	iv := &Var{Name: "i", Scalar: true, Rows: 1, Cols: 1}
	scope := []ivarBound{{v: iv, iv: Interval{Lo: 2, Hi: 9}}}
	cases := []struct {
		e      Expr
		lo, hi float64
	}{
		{&Const{Val: 5}, 5, 5},
		{&VarRef{V: iv}, 2, 9},
		{&Bin{Op: OpAdd, X: &VarRef{V: iv}, Y: &Const{Val: 3}}, 5, 12},
		{&Bin{Op: OpSub, X: &VarRef{V: iv}, Y: &Const{Val: 1}}, 1, 8},
		{&Bin{Op: OpMul, X: &VarRef{V: iv}, Y: &Const{Val: 2}}, 4, 18},
	}
	for i, c := range cases {
		got := exprInterval(c.e, scope)
		if got.Lo != c.lo || got.Hi != c.hi {
			t.Errorf("case %d: got [%g, %g], want [%g, %g]", i, got.Lo, got.Hi, c.lo, c.hi)
		}
	}
	// Unknown variables widen to everything.
	unknown := &Var{Name: "x", Scalar: true, Rows: 1, Cols: 1}
	got := exprInterval(&VarRef{V: unknown}, scope)
	if !math.IsInf(got.Lo, -1) || !math.IsInf(got.Hi, 1) {
		t.Fatalf("unknown var: %+v", got)
	}
}

// buildChunk constructs "for i = lo:hi { m[i, j...] = 0 }" style loops.
func buildChunk(m, iv, jv *Var, lo, hi int) Stmt {
	inner := &For{
		IVar: jv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(m.Cols)},
		Trip: m.Cols,
		Body: []Stmt{&Store{Dst: m, Idx: []Expr{&VarRef{V: iv}, &VarRef{V: jv}}, Src: &Const{Val: 0}}},
	}
	return &For{
		IVar: iv, Lo: &Const{Val: float64(lo)}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(hi)},
		Trip: hi - lo + 1,
		Body: []Stmt{inner},
	}
}

func TestCollectAccessRangesOnChunks(t *testing.T) {
	m := &Var{Name: "m", Rows: 16, Cols: 8}
	iv := &Var{Name: "i", Scalar: true, Rows: 1, Cols: 1}
	jv := &Var{Name: "j", Scalar: true, Rows: 1, Cols: 1}
	chunk1 := CollectAccessRanges([]Stmt{buildChunk(m, iv, jv, 1, 8)})
	chunk2 := CollectAccessRanges([]Stmt{buildChunk(m, iv, jv, 9, 16)})
	r1, r2 := chunk1.Get(m), chunk2.Get(m)
	if !r1.Any || !r2.Any {
		t.Fatal("accesses not recorded")
	}
	if r1.Row.Lo != 1 || r1.Row.Hi != 8 || r2.Row.Lo != 9 || r2.Row.Hi != 16 {
		t.Fatalf("rows: %+v %+v", r1.Row, r2.Row)
	}
	if !r1.DisjointFrom(r2) {
		t.Fatal("disjoint chunks not recognized")
	}
	// Overlapping chunks (halo) must NOT be disjoint.
	chunk3 := CollectAccessRanges([]Stmt{buildChunk(m, iv, jv, 8, 12)})
	if chunk1.Get(m).DisjointFrom(chunk3.Get(m)) {
		t.Fatal("overlapping chunks wrongly disjoint")
	}
}

func TestAccessRangeLinearIndexWidens(t *testing.T) {
	m := &Var{Name: "m", Rows: 4, Cols: 4}
	st := &Store{Dst: m, Idx: []Expr{&Const{Val: 3}}, Src: &Const{Val: 1}}
	r := CollectAccessRanges([]Stmt{st}).Get(m)
	if !math.IsInf(r.Row.Hi, 1) || !math.IsInf(r.Col.Hi, 1) {
		t.Fatalf("linear access must widen: %+v", r)
	}
}

func TestAccessRangeOffsetIndices(t *testing.T) {
	// Stencil read m[i-1, j] from i in 2..8 -> rows 1..7.
	m := &Var{Name: "m", Rows: 16, Cols: 8}
	iv := &Var{Name: "i", Scalar: true, Rows: 1, Cols: 1}
	jv := &Var{Name: "j", Scalar: true, Rows: 1, Cols: 1}
	acc := &Var{Name: "acc", Scalar: true, Rows: 1, Cols: 1}
	read := &AssignScalar{Dst: acc, Src: &Index{V: m, Idx: []Expr{
		&Bin{Op: OpSub, X: &VarRef{V: iv}, Y: &Const{Val: 1}},
		&VarRef{V: jv},
	}}}
	inner := &For{IVar: jv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: 8}, Trip: 8, Body: []Stmt{read}}
	outer := &For{IVar: iv, Lo: &Const{Val: 2}, Step: &Const{Val: 1}, Hi: &Const{Val: 8}, Trip: 7, Body: []Stmt{inner}}
	r := CollectAccessRanges([]Stmt{outer}).Get(m)
	if r.Row.Lo != 1 || r.Row.Hi != 7 {
		t.Fatalf("stencil rows: %+v", r.Row)
	}
	// Disjoint from a writer covering rows 9..16.
	w := CollectAccessRanges([]Stmt{buildChunk(m, iv, jv, 9, 16)}).Get(m)
	if !r.DisjointFrom(w) {
		t.Fatal("stencil rows 1..7 vs writes 9..16 should be disjoint")
	}
	// Not disjoint from a writer covering rows 7..8.
	w2 := CollectAccessRanges([]Stmt{buildChunk(m, iv, jv, 7, 8)}).Get(m)
	if r.DisjointFrom(w2) {
		t.Fatal("halo overlap missed")
	}
}
