package ir_test

import (
	"fmt"
	"math"
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
	if u.MatReads().Len() != 1 || u.MatWrites().Len() != 0 {
		t.Fatalf("matrix uses: reads %d writes %d", u.MatReads().Len(), u.MatWrites().Len())
	}
	if u.ScalWrite().Len() < 3 { // s, r, i
		t.Fatalf("scalar writes: %d", u.ScalWrite().Len())
	}
}

// refDefinesBeforeUse is the use-set based implementation of the
// scalar privatization question that ir.DefinedBeforeUse answers for a
// whole region at once, kept as the reference it must agree with.
func refDefinesBeforeUse(stmts []ir.Stmt, v *ir.Var) bool {
	for _, s := range stmts {
		if as, ok := s.(*ir.AssignScalar); ok && as.Dst == v {
			return !refExprUses(as.Src).ScalReads[v]
		}
		if f, ok := s.(*ir.For); ok {
			u := newRefUses()
			u.addExpr(f.Lo)
			u.addExpr(f.Step)
			u.addExpr(f.Hi)
			if u.ScalReads[v] {
				return false
			}
			if f.IVar == v {
				return true
			}
			whole := refComputeUses(f.Body)
			if !whole.ScalReads[v] && !whole.ScalWrite[v] {
				continue
			}
			return refDefinesBeforeUse(f.Body, v)
		}
		u := refComputeUses([]ir.Stmt{s})
		if u.ScalReads[v] || u.ScalWrite[v] {
			return false
		}
	}
	return false
}

// refCountAccesses is the per-statement implementation ir.CountAccesses
// replaced, kept as the reference it must agree with: every statement
// counts into fresh maps, a loop scales its body's maps, an if takes the
// positive per-variable maxima of its branches', and each level adds
// into its parent's.
func refCountAccesses(stmts []ir.Stmt) *ir.AccessCounts {
	total := ir.NewAccessCounts()
	for _, s := range stmts {
		refAdd(total, refCountStmt(s))
	}
	return total
}

func refCountStmt(s ir.Stmt) *ir.AccessCounts {
	c := ir.NewAccessCounts()
	exprs := func(c *ir.AccessCounts, es ...ir.Expr) {
		for _, e := range es {
			ir.WalkExprs(e, func(sub ir.Expr) {
				if ix, ok := sub.(*ir.Index); ok {
					c.Reads[ix.V]++
				}
			})
		}
	}
	switch st := s.(type) {
	case *ir.AssignScalar:
		exprs(c, st.Src)
	case *ir.Store:
		exprs(c, st.Idx...)
		exprs(c, st.Src)
		c.Writes[st.Dst]++
	case *ir.For:
		exprs(c, st.Lo, st.Step, st.Hi)
		body := refCountAccesses(st.Body)
		refScale(body, int64(st.Trip))
		refAdd(c, body)
	case *ir.While:
		iter := ir.NewAccessCounts()
		exprs(iter, st.Cond)
		refAdd(iter, refCountAccesses(st.Body))
		refScale(iter, int64(st.Bound))
		exprs(iter, st.Cond)
		refAdd(c, iter)
	case *ir.If:
		exprs(c, st.Cond)
		thenC, elseC := refCountAccesses(st.Then), refCountAccesses(st.Else)
		refAdd(c, &ir.AccessCounts{Reads: refMax(thenC.Reads, elseC.Reads), Writes: refMax(thenC.Writes, elseC.Writes)})
	}
	return c
}

func refScale(c *ir.AccessCounts, f int64) {
	for v := range c.Reads {
		c.Reads[v] *= f
	}
	for v := range c.Writes {
		c.Writes[v] *= f
	}
}

func refAdd(c, other *ir.AccessCounts) {
	for v, k := range other.Reads {
		c.Reads[v] += k
	}
	for v, k := range other.Writes {
		c.Writes[v] += k
	}
}

func refMax(a, b map[*ir.Var]int64) map[*ir.Var]int64 {
	out := map[*ir.Var]int64{}
	for _, m := range []map[*ir.Var]int64{a, b} {
		for v := range m {
			if n := max(a[v], b[v]); n > 0 {
				out[v] = n
			}
		}
	}
	return out
}

// sameCounts reports whether two per-variable counts agree, zero entries
// and missing ones alike.
func sameCounts(a, b map[*ir.Var]int64) bool {
	for _, m := range []map[*ir.Var]int64{a, b} {
		for v := range m {
			if a[v] != b[v] {
				return false
			}
		}
	}
	return true
}

// statementLists returns every statement list of prog's entry function:
// the body, every for and while body and both branches of every if.
func statementLists(prog *ir.Program) [][]ir.Stmt {
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
	return lists
}

// checkDefinesBeforeUse compares ir.DefinedBeforeUse with the reference
// for every variable of prog over every suffix of every statement list
// of the entry function. It returns how many questions were answered
// true and false.
func checkDefinesBeforeUse(t *testing.T, label string, prog *ir.Program) (yes, no int) {
	t.Helper()
	for li, list := range statementLists(prog) {
		for from := range list {
			defined := ir.DefinedBeforeUse(list[from:])
			for _, v := range prog.Vars {
				got := defined.Has(v)
				if want := refDefinesBeforeUse(list[from:], v); got != want {
					t.Errorf("%s: list %d from statement %d, %s: DefinedBeforeUse %v, reference %v\n%s",
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

// checkCountAccesses compares ir.CountAccesses with the reference over
// every suffix of every statement list of the entry function. It returns
// how many accesses the whole body counts.
func checkCountAccesses(t *testing.T, label string, prog *ir.Program) int64 {
	t.Helper()
	for li, list := range statementLists(prog) {
		for from := range list {
			got, want := ir.CountAccesses(list[from:]), refCountAccesses(list[from:])
			if !sameCounts(got.Reads, want.Reads) || !sameCounts(got.Writes, want.Writes) {
				t.Errorf("%s: list %d from statement %d: CountAccesses reads %v writes %v, reference reads %v writes %v\n%s",
					label, li, from, got.Reads, got.Writes, want.Reads, want.Writes, prog.Dump())
				return 0
			}
		}
	}
	return ir.CountAccesses(prog.Entry.Body).TotalAll()
}

// generatedPrograms calls check on each of 60 generated programs as
// lowered, and again after the structural transformations have reshaped
// their loops.
func generatedPrograms(t *testing.T, check func(label string, prog *ir.Program)) {
	t.Helper()
	opt := transform.DefaultOptions()
	opt.Hoist, opt.ElideInits, opt.Fusion = true, true, true
	opt.UnrollFactor, opt.TileI, opt.TileJ, opt.ParallelChunks = 2, 2, 3, 4
	cfg := scil.DefaultGenConfig()
	for seed := int64(0); seed < 60; seed++ {
		src := scil.Generate(rand.New(rand.NewSource(seed)), cfg)
		prog, err := ir.Lower(src, "fuzz", []ir.ArgSpec{ir.MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d lowered", seed), prog)
		transform.Apply(prog, opt)
		check(fmt.Sprintf("seed %d transformed", seed), prog)
	}
}

// TestDefinesBeforeUseMatchesReference runs the region summary and the
// per-variable reference over generated programs.
func TestDefinesBeforeUseMatchesReference(t *testing.T) {
	var yes, no int
	generatedPrograms(t, func(label string, prog *ir.Program) {
		y, n := checkDefinesBeforeUse(t, label, prog)
		yes, no = yes+y, no+n
	})
	if yes == 0 || no == 0 {
		t.Fatalf("vacuous corpus: %d true and %d false answers", yes, no)
	}
}

// TestCountAccessesMatchesReference runs the one-walk access counts and
// the per-statement reference over generated programs.
func TestCountAccessesMatchesReference(t *testing.T) {
	var total int64
	generatedPrograms(t, func(label string, prog *ir.Program) {
		total += checkCountAccesses(t, label, prog)
	})
	if total == 0 {
		t.Fatal("vacuous corpus: no accesses counted")
	}
}

// TestDefinesBeforeUseCases pins the first-touch rule on hand-built
// regions, and checks the summary against the reference for every
// variable of each.
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
		{"induction variable read in its own bound", []ir.Stmt{loop(i, ref(i), set(y, ref(i)))}, i, false},
		{"definition in a nested loop body", []ir.Stmt{loop(i, num(4), loop(j, num(4), set(x, ref(j)), set(y, ref(x))))}, x, true},
		{"nested induction variable", []ir.Stmt{loop(i, num(4), loop(j, num(4), set(y, ref(j))))}, j, true},
		{"read before definition in a loop body", []ir.Stmt{loop(i, num(4), set(y, ref(x)), set(x, ref(i)))}, x, false},
		{"loop that does not touch it, then definition", []ir.Stmt{loop(i, num(4), set(y, ref(i))), set(x, num(2))}, x, true},
		{"definition only under if", []ir.Stmt{&ir.If{Cond: ref(c), Then: []ir.Stmt{set(x, num(1))}}, set(y, ref(x))}, x, false},
		{"definition in both if branches", []ir.Stmt{&ir.If{Cond: ref(c), Then: []ir.Stmt{set(x, num(1))}, Else: []ir.Stmt{set(x, num(2))}}}, x, false},
		{"induction variable under if", []ir.Stmt{&ir.If{Cond: ref(c), Then: []ir.Stmt{loop(i, num(4), set(y, ref(i)))}}, set(i, num(1))}, i, false},
		{"definition only under while", []ir.Stmt{&ir.While{Cond: ref(c), Bound: 4, Body: []ir.Stmt{set(x, num(1))}}, set(y, ref(x))}, x, false},
		{"read only in a load subscript", []ir.Stmt{set(y, &ir.Index{V: m, Idx: []ir.Expr{ref(x), num(1)}}), set(x, num(1))}, x, false},
		{"read only in a store subscript", []ir.Stmt{&ir.Store{Dst: m, Idx: []ir.Expr{num(1), ref(x)}, Src: num(0)}, set(x, num(1))}, x, false},
		{"untouched variable", []ir.Stmt{set(y, num(1)), loop(i, num(4), set(y, ref(i)))}, x, false},
		{"empty region", nil, x, false},
	}
	for _, tc := range cases {
		defined := ir.DefinedBeforeUse(tc.region)
		if got := defined.Has(tc.v); got != tc.want {
			t.Errorf("%s: DefinedBeforeUse[%s] = %v, want %v", tc.name, tc.v.Name, got, tc.want)
		}
		for _, v := range []*ir.Var{x, y, c, i, j, m} {
			if got, want := defined.Has(v), refDefinesBeforeUse(tc.region, v); got != want {
				t.Errorf("%s: DefinedBeforeUse[%s] = %v, reference %v", tc.name, v.Name, got, want)
			}
		}
	}
}

// TestCountAccessesCases pins the multiplier and the branch maxima where
// they meet zero trips, zero bounds, disjoint branches and overflow, and
// checks the reference agrees on each.
func TestCountAccessesCases(t *testing.T) {
	iv := &ir.Var{Name: "i", Scalar: true}
	c := &ir.Var{Name: "c", Scalar: true}
	a := &ir.Var{Name: "a", Rows: 2, Cols: 2}
	b := &ir.Var{Name: "b", Rows: 2, Cols: 2}
	one := &ir.Const{Val: 1}
	load := func(m *ir.Var) ir.Expr { return &ir.Index{V: m, Idx: []ir.Expr{one, one}} }
	read := func(ms ...*ir.Var) ir.Stmt {
		var e ir.Expr = &ir.Const{Val: 0}
		for _, m := range ms {
			e = &ir.Bin{Op: ir.OpAdd, X: e, Y: load(m)}
		}
		return &ir.AssignScalar{Dst: c, Src: e}
	}
	store := func(m *ir.Var) ir.Stmt { return &ir.Store{Dst: m, Idx: []ir.Expr{one, one}, Src: one} }
	loop := func(trip int, body ...ir.Stmt) ir.Stmt {
		return &ir.For{IVar: iv, Lo: one, Step: one, Hi: &ir.Const{Val: float64(trip)}, Trip: trip, Body: body}
	}
	branch := func(then, els []ir.Stmt) ir.Stmt { return &ir.If{Cond: load(a), Then: then, Else: els} }
	const big = 1 << 62
	cases := []struct {
		name          string
		region        []ir.Stmt
		reads, writes map[*ir.Var]int64
	}{
		{"if inside a loop of trip 0",
			[]ir.Stmt{loop(0, branch([]ir.Stmt{read(a, a)}, []ir.Stmt{store(b)})), read(b)},
			map[*ir.Var]int64{b: 1}, nil},
		{"while with bound 0",
			[]ir.Stmt{&ir.While{Cond: load(a), Bound: 0, Body: []ir.Stmt{read(b), store(a)}}},
			map[*ir.Var]int64{a: 1}, nil},
		{"branches over disjoint variables",
			[]ir.Stmt{loop(3, branch([]ir.Stmt{read(a, a), store(a)}, []ir.Stmt{read(b, b, b)}))},
			map[*ir.Var]int64{a: 3 * 3, b: 3 * 3}, map[*ir.Var]int64{a: 3}},
		{"trip product past int64",
			[]ir.Stmt{loop(big, loop(8, read(a))), loop(3, loop(big, store(b)))},
			map[*ir.Var]int64{a: 0}, map[*ir.Var]int64{b: -big}},
		{"overflowed branch maximum under a loop",
			[]ir.Stmt{loop(5, branch([]ir.Stmt{loop(3, loop(big, read(b)))}, []ir.Stmt{loop(big, loop(2, read(b)))}))},
			map[*ir.Var]int64{a: 5}, nil},
		{"branch maximum scaled past int64",
			[]ir.Stmt{loop(2, branch([]ir.Stmt{loop(big, read(b))}, nil))},
			map[*ir.Var]int64{a: 2, b: math.MinInt64}, nil},
	}
	for _, tc := range cases {
		got, want := ir.CountAccesses(tc.region), refCountAccesses(tc.region)
		if !sameCounts(got.Reads, tc.reads) || !sameCounts(got.Writes, tc.writes) {
			t.Errorf("%s: CountAccesses reads %v writes %v, want reads %v writes %v", tc.name, got.Reads, got.Writes, tc.reads, tc.writes)
		}
		if !sameCounts(want.Reads, tc.reads) || !sameCounts(want.Writes, tc.writes) {
			t.Errorf("%s: reference reads %v writes %v, want reads %v writes %v", tc.name, want.Reads, want.Writes, tc.reads, tc.writes)
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
