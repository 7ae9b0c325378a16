package ir

import (
	"strings"
	"testing"
)

// mkTraceProg builds a small program with one scalar param (varying) and
// helper vars for the staticity tests.
func mkTraceProg() (*Program, *Var, *Var, *Var, *Var) {
	p := &Program{}
	in := p.NewVar(&Var{Name: "in", Scalar: true, Param: true})
	a := p.NewVar(&Var{Name: "a", Scalar: true})
	b := p.NewVar(&Var{Name: "b", Scalar: true})
	i := p.NewVar(&Var{Name: "i", Scalar: true})
	m := p.NewVar(&Var{Name: "m", Rows: 4, Cols: 4, Storage: StorageShared})
	p.Entry = &Func{Name: "f", Params: []*Var{in, m}, Body: nil}
	return p, in, a, b, i
}

func TestTraceEnvStaticLoop(t *testing.T) {
	p, _, a, _, i := mkTraceProg()
	// a = 3; for i = 1:a { m[i,1] = i }  -- fully static control.
	region := []Stmt{
		&AssignScalar{Dst: a, Src: &Const{Val: 3}},
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &VarRef{V: a}, Trip: 3,
			Body: []Stmt{
				&Store{Dst: p.VarByName("m"), Idx: []Expr{&VarRef{V: i}, &Const{Val: 1}},
					Src: &VarRef{V: i}},
			}},
	}
	env := NewTraceEnv(p)
	if !env.AdvanceRegion(region) {
		t.Fatal("static-bound loop region should be trace-invariant")
	}
}

func TestTraceEnvDataDependentBound(t *testing.T) {
	p, in, a, _, i := mkTraceProg()
	// a = in; for i = 1:a { ... } -- bound depends on the input.
	region := []Stmt{
		&AssignScalar{Dst: a, Src: &VarRef{V: in}},
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &VarRef{V: a}, Trip: 8, Body: nil},
	}
	env := NewTraceEnv(p)
	if env.AdvanceRegion(region) {
		t.Fatal("input-bounded loop must not be trace-invariant")
	}
}

func TestTraceEnvMatrixLoadVaries(t *testing.T) {
	p, _, a, _, i := mkTraceProg()
	m := p.VarByName("m")
	// a = m[1,1]; for i = 1:a -- bound loaded from memory.
	region := []Stmt{
		&AssignScalar{Dst: a, Src: &Index{V: m, Idx: []Expr{&Const{Val: 1}, &Const{Val: 1}}}},
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &VarRef{V: a}, Trip: 8, Body: nil},
	}
	env := NewTraceEnv(p)
	if env.AdvanceRegion(region) {
		t.Fatal("memory-bounded loop must not be trace-invariant")
	}
}

func TestTraceEnvIfPoisons(t *testing.T) {
	p, in, a, b, i := mkTraceProg()
	// Region 1: if in != 0 { a = 1 }  -- variant, and poisons a.
	r1 := []Stmt{
		&If{Cond: &VarRef{V: in}, Then: []Stmt{
			&AssignScalar{Dst: a, Src: &Const{Val: 1}},
		}},
	}
	// Region 2: b = a; for i = 1:b -- depends on the poisoned a.
	r2 := []Stmt{
		&AssignScalar{Dst: b, Src: &VarRef{V: a}},
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &VarRef{V: b}, Trip: 8, Body: nil},
	}
	env := NewTraceEnv(p)
	if env.AdvanceRegion(r1) {
		t.Fatal("if region must not be trace-invariant")
	}
	if env.AdvanceRegion(r2) {
		t.Fatal("region reading an if-assigned scalar in a bound must not be invariant")
	}
	// A fresh environment with a static reassignment recovers staticity.
	env2 := NewTraceEnv(p)
	r3 := []Stmt{&AssignScalar{Dst: a, Src: &Const{Val: 2}}}
	if !env2.AdvanceRegion(r3) {
		t.Fatal("constant assignment region should be invariant")
	}
	if !env2.AdvanceRegion(r2[:1]) {
		t.Fatal("b = a with static a should stay invariant")
	}
}

func TestTraceEnvLoopFeedback(t *testing.T) {
	p, in, a, b, i := mkTraceProg()
	// for i = 1:3 { b = a; a = in }: after iteration 1, b is varying —
	// the fixpoint must catch the cross-iteration feedback.
	region := []Stmt{
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: 3}, Trip: 3,
			Body: []Stmt{
				&AssignScalar{Dst: b, Src: &VarRef{V: a}},
				&AssignScalar{Dst: a, Src: &VarRef{V: in}},
			}},
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &VarRef{V: b}, Trip: 8, Body: nil},
	}
	env := NewTraceEnv(p)
	if env.AdvanceRegion(region) {
		t.Fatal("loop-carried input dependence must defeat invariance")
	}
}

// traceVerdicts lowers body inside f(m, x), with m a 4x4 matrix input, x
// a scalar input and w a 4x4 local, and advances one TraceEnv over each
// top-level statement of body as a region of its own. It returns one
// verdict per region: '+' invariant, '-' variant.
func traceVerdicts(t *testing.T, body string) string {
	t.Helper()
	const head = 2 // w = zeros(4, 4); r = 0
	p := compile(t, "function r = f(m, x)\n  w = zeros(4, 4)\n  r = 0\n"+body+"\nendfunction",
		"f", ArgSpec{Rows: 4, Cols: 4}, ArgSpec{Scalar: true})
	env := NewTraceEnv(p)
	var b strings.Builder
	for k, s := range p.Entry.Body {
		inv := env.AdvanceRegion([]Stmt{s})
		switch {
		case k < head:
		case inv:
			b.WriteByte('+')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

type traceCase struct{ name, body, want string }

func checkTraceVerdicts(t *testing.T, cases []traceCase) {
	t.Helper()
	for _, tc := range cases {
		if got := traceVerdicts(t, tc.body); got != tc.want {
			t.Errorf("%s: verdicts %q, want %q\n%s", tc.name, got, tc.want, tc.body)
		}
	}
}

// An if whose condition tests loop indices only takes the same path on
// every run, so its region stays invariant.
func TestTraceEnvIndexIfInvariant(t *testing.T) {
	checkTraceVerdicts(t, []traceCase{
		{"if", `
for i = 1:4
  if i >= 2 then
    w(i, 1) = m(i, 1)
  end
end`, "+"},
		{"if-else", `
for i = 1:4
  if i >= 2 then
    w(i, 1) = m(i, 1)
  else
    w(i, 2) = 0
  end
end`, "+"},
		{"nested", `
for i = 1:4
  for j = 1:4
    if i >= 2 & j <= 3 then
      if i ~= j then
        w(i, j) = m(i, j)
      end
    end
  end
end`, "+"},
		{"break", `
for i = 1:4
  w(i, 1) = m(i, 1)
  if i == 3 then
    break
  end
end`, "+"},
		{"boundary stencil", `
for i = 1:4
  acc = 0
  for di = -1:1
    ii = i + di
    if ii >= 1 & ii <= 4 then
      acc = acc + m(ii, 1)
    end
  end
  w(i, 1) = acc
end`, "+"},
		{"static scalar", `
a = 2
if a > 1 then
  r = m(1, 1)
end
for i = 1:4
  if i > a then
    w(i, 1) = r
  end
end`, "+++"},
	})
}

// An if on a matrix load, or on a scalar derived from an input, may take
// a different path per run.
func TestTraceEnvDataIfVariant(t *testing.T) {
	checkTraceVerdicts(t, []traceCase{
		{"matrix load", `
for i = 1:4
  if m(i, 1) > 0 then
    w(i, 1) = 1
  end
end`, "-"},
		{"scalar input", `
a = x * 2
if a > 0 then
  r = 1
end`, "+-"},
		{"loaded scalar", `
a = m(1, 1)
for i = 1:4
  if a > i then
    w(i, 1) = 1
  end
end`, "+-"},
		{"while", `
k = 0
//@bound 5
while k < 4
  k = k + 1
end`, "+-"},
	})
}

// A static if whose branch assigns an input-derived scalar is invariant
// itself, but an if that later reads the scalar is not.
func TestTraceEnvStaticIfTaintsLaterReads(t *testing.T) {
	checkTraceVerdicts(t, []traceCase{
		{"later if", `
a = 2
for i = 1:4
  if i == 2 then
    a = x
  end
end
if a > 1 then
  r = 1
end`, "++-"},
		{"else branch", `
a = 2
if a > 1 then
  r = 1
else
  a = m(1, 1)
end
if a > 1 then
  r = 2
end`, "++-"},
	})
	// Loop bounds are compile-time constants in source, so the loop-bound
	// case is built by hand: if in == in { a = in }; for i = 1:a.
	p, in, a, _, i := mkTraceProg()
	r1 := []Stmt{
		&If{Cond: &Const{Val: 1}, Then: []Stmt{&AssignScalar{Dst: a, Src: &VarRef{V: in}}}},
	}
	r2 := []Stmt{
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &VarRef{V: a}, Trip: 8, Body: nil},
	}
	env := NewTraceEnv(p)
	if !env.AdvanceRegion(r1) {
		t.Error("static if assigning an input should be invariant itself")
	}
	if env.AdvanceRegion(r2) {
		t.Error("loop bounded by a scalar a static if assigned from an input must be variant")
	}
}

// A condition that turns varying only on a later iteration is caught by
// the loop fixpoint, also when the scalar was static before the loop.
func TestTraceEnvLoopFixpointCatchesLateVariance(t *testing.T) {
	checkTraceVerdicts(t, []traceCase{
		{"static before loop", `
a = 0
for i = 1:4
  if a > 0 then
    w(i, 1) = 1
  end
  a = m(i, 1)
end`, "+-"},
		{"loop under static if", `
b = 2
if b > 1 then
  for i = 1:4
    if b > 3 then
      w(i, 1) = 1
    end
    b = x
  end
end`, "+-"},
	})
	// a = 3; for i = 1:4 { for j = 1:a {}; a = m(i, 1) }: the inner bound
	// is static on the first iteration only.
	p, _, a, b, i := mkTraceProg()
	m := p.VarByName("m")
	region := []Stmt{
		&AssignScalar{Dst: a, Src: &Const{Val: 3}},
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: 4}, Trip: 4,
			Body: []Stmt{
				&For{IVar: b, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &VarRef{V: a}, Trip: 8, Body: nil},
				&AssignScalar{Dst: a, Src: &Index{V: m, Idx: []Expr{&VarRef{V: i}, &Const{Val: 1}}}},
			}},
	}
	if NewTraceEnv(p).AdvanceRegion(region) {
		t.Error("inner bound loaded on an earlier iteration must defeat invariance")
	}
}
