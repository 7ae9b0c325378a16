package ir_test

import (
	"fmt"
	"math/rand"
	"testing"

	"argo/internal/ir"
	"argo/internal/scil"
	"argo/internal/transform"
)

func lower(t *testing.T, src, entry string, args ...ir.ArgSpec) *ir.Program {
	t.Helper()
	p, err := scil.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(p, entry, args)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func TestComputeUsesSeparatesKinds(t *testing.T) {
	prog := lower(t, `
function r = f(m)
  s = 1
  r = 0
  for i = 1:3
    r = r + m(i, i) * s
  end
endfunction`, "f", ir.MatrixArg(3, 3))
	u := ir.ComputeUses(prog.Entry.Body)
	if len(u.MatReads) != 1 || len(u.MatWrites) != 0 {
		t.Fatalf("matrix uses: reads %d writes %d", len(u.MatReads), len(u.MatWrites))
	}
	if len(u.ScalWrite) < 3 { // s, r, i
		t.Fatalf("scalar writes: %d", len(u.ScalWrite))
	}
}

// refDefinesBeforeUse is the use-set based implementation
// ir.DefinesBeforeUse replaced in the transformations, kept as the
// reference it must agree with.
func refDefinesBeforeUse(stmts []ir.Stmt, v *ir.Var) bool {
	for _, s := range stmts {
		if as, ok := s.(*ir.AssignScalar); ok && as.Dst == v {
			u := ir.NewUseSets()
			u.AddExprUses(as.Src)
			return !u.ScalReads[v]
		}
		if f, ok := s.(*ir.For); ok {
			u := ir.NewUseSets()
			u.AddExprUses(f.Lo)
			u.AddExprUses(f.Step)
			u.AddExprUses(f.Hi)
			if u.ScalReads[v] {
				return false
			}
			if f.IVar == v {
				return true
			}
			whole := ir.ComputeUses(f.Body)
			if !whole.ScalReads[v] && !whole.ScalWrite[v] {
				continue
			}
			return refDefinesBeforeUse(f.Body, v)
		}
		u := ir.ComputeUses([]ir.Stmt{s})
		if u.ScalReads[v] || u.ScalWrite[v] {
			return false
		}
	}
	return false
}

// checkDefinesBeforeUse compares ir.DefinesBeforeUse with the reference
// for every variable of prog over every suffix of every statement list
// of the entry function: the body, every for and while body and both if
// branches. It returns how many questions were answered true and false.
func checkDefinesBeforeUse(t *testing.T, label string, prog *ir.Program) (yes, no int) {
	t.Helper()
	lists := [][]ir.Stmt{prog.Entry.Body}
	ir.WalkStmts(prog.Entry.Body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.For:
			lists = append(lists, st.Body)
		case *ir.While:
			lists = append(lists, st.Body)
		case *ir.If:
			lists = append(lists, st.Then, st.Else)
		}
		return true
	})
	for li, list := range lists {
		for from := range list {
			for _, v := range prog.Vars {
				got := ir.DefinesBeforeUse(list[from:], v)
				if want := refDefinesBeforeUse(list[from:], v); got != want {
					t.Errorf("%s: list %d from statement %d, %s: DefinesBeforeUse %v, reference %v\n%s",
						label, li, from, v.Name, got, want, prog.Dump())
					return yes, no
				}
				if got {
					yes++
				} else {
					no++
				}
			}
		}
	}
	return yes, no
}

// TestDefinesBeforeUseMatchesReference runs the predicate and its
// reference over generated programs as lowered, and again after the
// structural transformations have reshaped their loops.
func TestDefinesBeforeUseMatchesReference(t *testing.T) {
	opt := transform.DefaultOptions()
	opt.Hoist, opt.ElideInits, opt.Fusion = true, true, true
	opt.UnrollFactor, opt.TileI, opt.TileJ, opt.ParallelChunks = 2, 2, 3, 4
	cfg := scil.DefaultGenConfig()
	var yes, no int
	for seed := int64(0); seed < 60; seed++ {
		src := scil.Generate(rand.New(rand.NewSource(seed)), cfg)
		prog, err := ir.Lower(src, "fuzz", []ir.ArgSpec{ir.MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		y, n := checkDefinesBeforeUse(t, fmt.Sprintf("seed %d lowered", seed), prog)
		yes, no = yes+y, no+n
		transform.Apply(prog, opt)
		y, n = checkDefinesBeforeUse(t, fmt.Sprintf("seed %d transformed", seed), prog)
		yes, no = yes+y, no+n
	}
	if yes == 0 || no == 0 {
		t.Fatalf("vacuous corpus: %d true and %d false answers", yes, no)
	}
}

// TestDefinesBeforeUseCases pins the first-touch rule on hand-built
// regions, and checks the reference agrees on each.
func TestDefinesBeforeUseCases(t *testing.T) {
	scalar := func(name string) *ir.Var { return &ir.Var{Name: name, Scalar: true} }
	x, y, c, i, j := scalar("x"), scalar("y"), scalar("c"), scalar("i"), scalar("j")
	m := &ir.Var{Name: "m", Rows: 4, Cols: 4}
	ref := func(v *ir.Var) ir.Expr { return &ir.VarRef{V: v} }
	num := func(f float64) ir.Expr { return &ir.Const{Val: f} }
	set := func(v *ir.Var, e ir.Expr) ir.Stmt { return &ir.AssignScalar{Dst: v, Src: e} }
	loop := func(iv *ir.Var, hi ir.Expr, body ...ir.Stmt) ir.Stmt {
		return &ir.For{IVar: iv, Lo: num(1), Step: num(1), Hi: hi, Trip: 4, Body: body}
	}
	cases := []struct {
		name   string
		region []ir.Stmt
		v      *ir.Var
		want   bool
	}{
		{"definition then read", []ir.Stmt{set(x, num(1)), set(y, ref(x))}, x, true},
		{"read then definition", []ir.Stmt{set(y, ref(x)), set(x, num(1))}, x, false},
		{"x = x + 1", []ir.Stmt{set(x, &ir.Bin{Op: ir.OpAdd, X: ref(x), Y: num(1)})}, x, false},
		{"read only in a loop bound", []ir.Stmt{loop(i, ref(x), set(x, ref(i)))}, x, false},
		{"induction variable", []ir.Stmt{loop(i, num(4), &ir.Store{Dst: m, Idx: []ir.Expr{ref(i), num(1)}, Src: ref(i)})}, i, true},
		{"definition in a nested loop body", []ir.Stmt{loop(i, num(4), loop(j, num(4), set(x, ref(j)), set(y, ref(x))))}, x, true},
		{"nested induction variable", []ir.Stmt{loop(i, num(4), loop(j, num(4), set(y, ref(j))))}, j, true},
		{"read before definition in a loop body", []ir.Stmt{loop(i, num(4), set(y, ref(x)), set(x, ref(i)))}, x, false},
		{"loop that does not touch it, then definition", []ir.Stmt{loop(i, num(4), set(y, ref(i))), set(x, num(2))}, x, true},
		{"definition only under if", []ir.Stmt{&ir.If{Cond: ref(c), Then: []ir.Stmt{set(x, num(1))}}, set(y, ref(x))}, x, false},
		{"definition in both if branches", []ir.Stmt{&ir.If{Cond: ref(c), Then: []ir.Stmt{set(x, num(1))}, Else: []ir.Stmt{set(x, num(2))}}}, x, false},
		{"definition only under while", []ir.Stmt{&ir.While{Cond: ref(c), Bound: 4, Body: []ir.Stmt{set(x, num(1))}}, set(y, ref(x))}, x, false},
		{"read only in a load subscript", []ir.Stmt{set(y, &ir.Index{V: m, Idx: []ir.Expr{ref(x), num(1)}}), set(x, num(1))}, x, false},
		{"read only in a store subscript", []ir.Stmt{&ir.Store{Dst: m, Idx: []ir.Expr{num(1), ref(x)}, Src: num(0)}, set(x, num(1))}, x, false},
		{"untouched variable", []ir.Stmt{set(y, num(1)), loop(i, num(4), set(y, ref(i)))}, x, false},
		{"empty region", nil, x, false},
	}
	for _, tc := range cases {
		if got := ir.DefinesBeforeUse(tc.region, tc.v); got != tc.want {
			t.Errorf("%s: DefinesBeforeUse = %v, want %v", tc.name, got, tc.want)
		}
		if got := refDefinesBeforeUse(tc.region, tc.v); got != tc.want {
			t.Errorf("%s: reference = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCountAccessesLoopsMultiply(t *testing.T) {
	prog := lower(t, `
function r = f(m)
  r = 0
  for i = 1:4
    for j = 1:5
      r = r + m(i, j)
    end
  end
endfunction`, "f", ir.MatrixArg(4, 5))
	c := ir.CountAccesses(prog.Entry.Body)
	var m *ir.Var
	for _, v := range prog.MatrixVars() {
		m = v
	}
	if c.Reads[m] != 20 {
		t.Fatalf("reads = %d, want 20", c.Reads[m])
	}
	if c.Total(m) != 20 || c.TotalAll() != 20 {
		t.Fatalf("totals: %d %d", c.Total(m), c.TotalAll())
	}
}

func TestCountAccessesIfTakesMaximum(t *testing.T) {
	prog := lower(t, `
function r = f(m, x)
  r = 0
  if x > 0 then
    r = m(1, 1) + m(1, 2) + m(2, 1)
  else
    r = m(2, 2)
  end
endfunction`, "f", ir.MatrixArg(2, 2), ir.ScalarArg())
	c := ir.CountAccesses(prog.Entry.Body)
	var m *ir.Var
	for _, v := range prog.MatrixVars() {
		m = v
	}
	// Worst branch reads 3 elements.
	if c.Reads[m] != 3 {
		t.Fatalf("reads = %d, want 3 (max of branches)", c.Reads[m])
	}
}

func TestCountAccessesWhileUsesBound(t *testing.T) {
	prog := lower(t, `
function r = f(m, x)
  r = 0
  //@bound 7
  while x > 0
    r = r + m(1, 1)
    x = x - 1
  end
endfunction`, "f", ir.MatrixArg(1, 1), ir.ScalarArg())
	c := ir.CountAccesses(prog.Entry.Body)
	var m *ir.Var
	for _, v := range prog.MatrixVars() {
		m = v
	}
	if c.Reads[m] != 7 {
		t.Fatalf("reads = %d, want 7 (the @bound)", c.Reads[m])
	}
}

func TestCountAccessesStoresCountAsWrites(t *testing.T) {
	prog := lower(t, `
function m = f(x)
  m = zeros(3, 3)
  for i = 1:3
    m(i, i) = x
  end
endfunction`, "f", ir.ScalarArg())
	c := ir.CountAccesses(prog.Entry.Body)
	var total int64
	for _, n := range c.Writes {
		total += n
	}
	// 9 fill writes + 3 diagonal writes.
	if total != 12 {
		t.Fatalf("writes = %d, want 12", total)
	}
}

func TestExecInspectionHelpers(t *testing.T) {
	prog := lower(t, `
function m = f(x)
  m = zeros(2, 2)
  m(1, 2) = x
endfunction`, "f", ir.ScalarArg())
	ex := ir.NewExec(prog, nil)
	if _, err := ex.Run([][]float64{{5}}); err != nil {
		t.Fatal(err)
	}
	m := prog.Entry.Results[0]
	buf := ex.MatrixValue(m)
	if buf == nil || buf[1] != 5 {
		t.Fatalf("MatrixValue: %v", buf)
	}
	if ex.ScalarValue(prog.Entry.Params[0]) != 5 {
		t.Fatal("ScalarValue")
	}
	if ex.MatrixValue(&ir.Var{Name: "ghost", Rows: 1, Cols: 1}) != nil {
		t.Fatal("unknown var should return nil")
	}
}

func TestVarAndStorageStrings(t *testing.T) {
	v := &ir.Var{Name: "m", Rows: 2, Cols: 3, Storage: ir.StorageSPM}
	if v.String() != "m:2x3@spm" {
		t.Fatalf("var string: %s", v)
	}
	s := &ir.Var{Name: "x", Scalar: true}
	if s.String() != "x:scalar" {
		t.Fatalf("scalar string: %s", s)
	}
	if ir.StorageReg.String() != "reg" || ir.StorageShared.String() != "shared" {
		t.Fatal("storage strings")
	}
}

func TestExprReadsCounts(t *testing.T) {
	m := &ir.Var{Name: "m", Rows: 2, Cols: 2}
	e := &ir.Bin{Op: ir.OpAdd,
		X: &ir.Index{V: m, Idx: []ir.Expr{&ir.Const{Val: 1}, &ir.Const{Val: 1}}},
		Y: &ir.Index{V: m, Idx: []ir.Expr{&ir.Const{Val: 2}, &ir.Const{Val: 2}}},
	}
	out := map[*ir.Var]int{}
	ir.ExprReads(e, out)
	if out[m] != 2 {
		t.Fatalf("reads = %d", out[m])
	}
}
