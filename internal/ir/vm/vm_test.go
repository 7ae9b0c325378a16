package vm_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"argo/internal/ir"
	"argo/internal/ir/vm"
	"argo/internal/scil"
	"argo/internal/usecases"
)

// recMeter records the full meter event sequence. Sequence equality (not
// just totals) is what guarantees the simulator's order-sensitive trace
// meter sees identical segment structure from both interpreters.
type recMeter struct {
	events []string
}

func (m *recMeter) Ops(n int)       { m.events = append(m.events, fmt.Sprintf("ops %d", n)) }
func (m *recMeter) Read(v *ir.Var)  { m.events = append(m.events, "read "+v.Name) }
func (m *recMeter) Write(v *ir.Var) { m.events = append(m.events, "write "+v.Name) }

func lower(t *testing.T, src, entry string, args ...ir.ArgSpec) *ir.Program {
	t.Helper()
	p, err := scil.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := scil.Check(p, scil.CheckWCET); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	prog, err := ir.Lower(p, entry, args)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

// outcome is what one engine observably did on one run: results, error
// and, when metered, the meter event sequence.
type outcome struct {
	out    [][]float64
	err    error
	events []string
}

// runTree executes prog's entry on the tree walker, with a recording
// meter when metered and under fuel when fuel > 0.
func runTree(prog *ir.Program, inputs [][]float64, metered bool, fuel int) outcome {
	rm := &recMeter{}
	ex := ir.NewExec(prog, nil)
	if metered {
		ex.SetMeter(rm)
	}
	var o outcome
	if o.err = ex.Init(inputs); o.err == nil {
		if fuel > 0 {
			ex.SetFuel(fuel)
		}
		if o.err = ex.ExecBlock(prog.Entry.Body); o.err == nil {
			o.out = ex.Results()
		}
	}
	o.events = rm.events
	return o
}

// runVM is runTree on a Machine: without a meter it runs the unmetered
// stream.
func runVM(cp *vm.Program, inputs [][]float64, metered bool, fuel int) outcome {
	rm := &recMeter{}
	m := vm.NewMachine(cp, nil)
	if metered {
		m.SetMeter(rm)
	}
	var o outcome
	if o.err = m.Init(inputs); o.err == nil {
		if fuel > 0 {
			m.SetFuel(fuel)
		}
		if o.err = m.ExecEntry(); o.err == nil {
			o.out = m.Results()
		}
	}
	o.events = rm.events
	return o
}

// sameOutcome requires bit-identical results, identical error strings
// and identical meter event sequences; label names the run.
func sameOutcome(t *testing.T, label string, tree, got outcome) {
	t.Helper()
	if (tree.err == nil) != (got.err == nil) ||
		(tree.err != nil && tree.err.Error() != got.err.Error()) {
		t.Fatalf("%s: error mismatch: tree=%v vm=%v", label, tree.err, got.err)
	}
	if len(tree.out) != len(got.out) {
		t.Fatalf("%s: result arity: tree=%d vm=%d", label, len(tree.out), len(got.out))
	}
	for i := range tree.out {
		if len(tree.out[i]) != len(got.out[i]) {
			t.Fatalf("%s: result %d length: tree=%d vm=%d", label, i, len(tree.out[i]), len(got.out[i]))
		}
		for j := range tree.out[i] {
			if math.Float64bits(tree.out[i][j]) != math.Float64bits(got.out[i][j]) {
				t.Fatalf("%s: result[%d][%d]: tree=%v vm=%v", label, i, j, tree.out[i][j], got.out[i][j])
			}
		}
	}
	if len(tree.events) != len(got.events) {
		t.Fatalf("%s: meter event count: tree=%d vm=%d\ntree tail: %v\nvm tail: %v",
			label, len(tree.events), len(got.events), tail(tree.events), tail(got.events))
	}
	for i := range tree.events {
		if tree.events[i] != got.events[i] {
			t.Fatalf("%s: meter event %d: tree=%q vm=%q", label, i, tree.events[i], got.events[i])
		}
	}
}

// streams names the two compiled streams by whether a meter is attached.
var streams = []struct {
	name    string
	metered bool
}{{"metered", true}, {"unmetered", false}}

// assertSame runs prog on both interpreters, once with recording meters
// (the VM's metered stream) and once without (its unmetered stream), and
// requires the same outcome each time.
func assertSame(t *testing.T, prog *ir.Program, inputs [][]float64) {
	t.Helper()
	cp, err := vm.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, s := range streams {
		sameOutcome(t, s.name, runTree(prog, inputs, s.metered, 0), runVM(cp, inputs, s.metered, 0))
	}
}

func tail(ev []string) []string {
	if len(ev) > 8 {
		return ev[len(ev)-8:]
	}
	return ev
}

func TestVMScalarArithmetic(t *testing.T) {
	prog := lower(t, `
function r = f(a, b)
  r = (a + b) * 2 - b / 4 + a ^ 2
endfunction`, "f", ir.ScalarArg(), ir.ScalarArg())
	assertSame(t, prog, [][]float64{{3}, {8}})
	assertSame(t, prog, [][]float64{{-1.5}, {0}})
}

func TestVMForLoop(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  r = 0
  for i = 1:50
    r = r + i * x
  end
endfunction`, "f", ir.ScalarArg())
	assertSame(t, prog, [][]float64{{2.5}})
}

func TestVMWhileBreakContinue(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  r = 0
  i = 0
  //@bound 100
  while i < 50
    i = i + 1
    if i == 40 then
      break
    end
    if i - floor(i / 2) * 2 == 0 then
      continue
    end
    r = r + i * x
  end
endfunction`, "f", ir.ScalarArg())
	assertSame(t, prog, [][]float64{{3}})
}

func TestVMNestedLoops(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  r = 0
  for i = 1:6
    for j = 1:6
      if j > i then
        break
      end
      r = r + i * 10 + j + x
    end
  end
endfunction`, "f", ir.ScalarArg())
	assertSame(t, prog, [][]float64{{0.25}})
}

func TestVMMatrixOps(t *testing.T) {
	prog := lower(t, `
function r = f(a, b)
  c = a * b
  d = abs(c - 3)
  s = sqrt(d)
  r = sum(s) + c(2, 2) * 100 + maxval(max(c, 0))
endfunction`, "f", ir.MatrixArg(2, 2), ir.MatrixArg(2, 2))
	assertSame(t, prog, [][]float64{{1, -2, 3, 4}, {5, 6, -7, 8}})
}

func TestVMLinearIndexing(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  a = zeros(2, 3)
  for k = 1:6
    a(k) = k * x
  end
  r = a(2, 1) * 100 + a(5) + a(1, 3)
endfunction`, "f", ir.ScalarArg())
	assertSame(t, prog, [][]float64{{1.5}})
}

func TestVMRuntimeIndexOutOfRange(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  a = zeros(2, 2)
  a(1, 1) = 7
  r = a(x)
endfunction`, "f", ir.ScalarArg())
	assertSame(t, prog, [][]float64{{3}})   // in range
	assertSame(t, prog, [][]float64{{9}})   // linear index out of range
	assertSame(t, prog, [][]float64{{1.5}}) // non-integer index
}

func TestVMRuntimeStoreOutOfRange(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  a = zeros(2, 2)
  a(x, 1) = 5
  r = a(1, 1)
endfunction`, "f", ir.ScalarArg())
	assertSame(t, prog, [][]float64{{2}})
	assertSame(t, prog, [][]float64{{3}})
	assertSame(t, prog, [][]float64{{0.3}})
}

// TestVMCompareAndBranch runs If conditions that compile to
// compare-and-branch jumps (one comparison, and & chains) on every pair
// of NaN, ±Inf, ±1 and ±0.
func TestVMCompareAndBranch(t *testing.T) {
	prog := lower(t, `
function r = f(x, y)
  r = 0
  if x < y & y <= 1 & x ~= y then
    r = r + 1
  end
  if x == y then
    r = r + 2
  else
    r = r + 4
  end
  if x > y & x >= 0 then
    r = r + 8
  end
endfunction`, "f", ir.ScalarArg(), ir.ScalarArg())
	vals := []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1)}
	for _, x := range vals {
		for _, y := range vals {
			assertSame(t, prog, [][]float64{{x}, {y}})
		}
	}
}

// TestVMSubscriptConversionOrder pins the tree walker's per-subscript
// order: a subscript is converted, and may fail, before a later sibling
// subscript that can fail or fire a meter event is evaluated — whether
// the first subscript is a variable or a compound expression, in loads
// and in stores.
func TestVMSubscriptConversionOrder(t *testing.T) {
	for _, src := range []string{
		"function r = f(x, m)\n  r = m(x, m(1, 1))\nendfunction",
		"function r = f(x, m)\n  r = m(x, m(x - 1, 1))\nendfunction",
		"function r = f(x, m)\n  r = m(x * 1, m(x - 1, 1))\nendfunction",
		"function r = f(x, m)\n  a = zeros(2, 2)\n  a(x, m(x - 1, 1)) = 5\n  r = a(2, 1)\nendfunction",
	} {
		prog := lower(t, src, "f", ir.ScalarArg(), ir.MatrixArg(2, 2))
		for _, x := range []float64{1, 1.5, 2, 2 + 1e-10, 3} {
			assertSame(t, prog, [][]float64{{x}, {1, 2, 1, 2}})
		}
	}
}

// TestVMCheckedStore covers the unmetered stream's checked stores: a
// quiet source evaluated ahead of subscripts that fail out of range or
// off an integer (within and beyond the 1e-9 tolerance), and a source
// that can fail, which keeps the tree walker's order.
func TestVMCheckedStore(t *testing.T) {
	two := lower(t, `
function r = f(x, y)
  a = zeros(2, 3)
  a(x, y) = sqrt(x) * y
  r = a(2, 3) + a(1, 1)
endfunction`, "f", ir.ScalarArg(), ir.ScalarArg())
	for _, in := range [][2]float64{
		{2, 3}, {1, 1}, {3, 1}, {1, 4}, {0, 1}, {1.5, 1},
		{2 + 1e-10, 3}, {2, 3 - 1e-10}, {2, 3 + 1e-8},
	} {
		assertSame(t, two, [][]float64{{in[0]}, {in[1]}})
	}
	one := lower(t, `
function r = f(x, y)
  a = zeros(2, 3)
  a(x) = max(x, y) - 1
  r = a(5) + a(2)
endfunction`, "f", ir.ScalarArg(), ir.ScalarArg())
	for _, x := range []float64{5, 2, 7, 0, 2.5, 5 + 1e-10, 5 - 1e-8} {
		assertSame(t, one, [][]float64{{x}, {1}})
	}
	loud := lower(t, `
function r = f(x, m)
  a = zeros(2, 3)
  a(1, x) = m(x - 1, 1)
  r = a(1, 2) + a(1, 3)
endfunction`, "f", ir.ScalarArg(), ir.MatrixArg(2, 2))
	for _, x := range []float64{2, 3, 4, 1.5, 1} {
		assertSame(t, loud, [][]float64{{x}, {1, 2, 3, 4}})
	}
}

func TestVMWhileBoundExceeded(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  r = 0
  //@bound 8
  while x > 0
    r = r + 1
  end
endfunction`, "f", ir.ScalarArg())
	assertSame(t, prog, [][]float64{{1}})
}

func TestVMArgValidation(t *testing.T) {
	prog := lower(t, `
function r = f(a, m)
  r = a + m(1, 1)
endfunction`, "f", ir.ScalarArg(), ir.MatrixArg(2, 2))
	assertSame(t, prog, [][]float64{{1}})                  // wrong arity
	assertSame(t, prog, [][]float64{{1, 2}, {1, 2, 3, 4}}) // non-scalar scalar arg
	assertSame(t, prog, [][]float64{{1}, {1, 2, 3}})       // wrong element count
	assertSame(t, prog, [][]float64{{1}, {1, 2, 3, 4}})    // valid
}

// TestVMDirectIR covers IR shapes the frontend cannot produce: top-level
// break/continue (the simulator executes arbitrary statement regions),
// unknown intrinsics in dead and live branches, and zero-step loops.
func TestVMDirectIR(t *testing.T) {
	build := func(body func(p *ir.Program, x, r *ir.Var) []ir.Stmt) *ir.Program {
		p := &ir.Program{}
		x := p.NewVar(&ir.Var{Name: "x", Scalar: true, Param: true})
		r := p.NewVar(&ir.Var{Name: "r", Scalar: true, Result: true})
		p.Entry = &ir.Func{
			Name:    "f",
			Params:  []*ir.Var{x},
			Results: []*ir.Var{r},
			Body:    body(p, x, r),
		}
		return p
	}

	t.Run("top-level break halts region", func(t *testing.T) {
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			return []ir.Stmt{
				&ir.AssignScalar{Dst: r, Src: &ir.Const{Val: 1}},
				&ir.If{
					Cond: &ir.VarRef{V: x},
					Then: []ir.Stmt{&ir.Break{}},
				},
				&ir.AssignScalar{Dst: r, Src: &ir.Const{Val: 2}},
			}
		})
		assertSame(t, prog, [][]float64{{1}})
		assertSame(t, prog, [][]float64{{0}})
	})

	t.Run("top-level continue halts region", func(t *testing.T) {
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			return []ir.Stmt{
				&ir.AssignScalar{Dst: r, Src: &ir.VarRef{V: x}},
				&ir.Continue{},
				&ir.AssignScalar{Dst: r, Src: &ir.Const{Val: -1}},
			}
		})
		assertSame(t, prog, [][]float64{{5}})
	})

	t.Run("unknown intrinsic", func(t *testing.T) {
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			return []ir.Stmt{
				&ir.AssignScalar{Dst: r, Src: &ir.Intrinsic{Name: "nosuch", Args: []ir.Expr{&ir.VarRef{V: x}}}},
			}
		})
		assertSame(t, prog, [][]float64{{1}})
	})

	t.Run("unknown intrinsic in dead branch", func(t *testing.T) {
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			return []ir.Stmt{
				&ir.If{
					Cond: &ir.VarRef{V: x},
					Then: []ir.Stmt{&ir.AssignScalar{Dst: r, Src: &ir.Intrinsic{Name: "nosuch"}}},
					Else: []ir.Stmt{&ir.AssignScalar{Dst: r, Src: &ir.Const{Val: 9}}},
				},
			}
		})
		assertSame(t, prog, [][]float64{{0}})
		assertSame(t, prog, [][]float64{{1}})
	})

	t.Run("zero step for loop", func(t *testing.T) {
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			i := p.FreshVar("i", 1, 1, true)
			return []ir.Stmt{
				&ir.For{
					IVar: i,
					Lo:   &ir.Const{Val: 1}, Hi: &ir.Const{Val: 3}, Step: &ir.VarRef{V: x},
					Trip: 3,
					Body: []ir.Stmt{&ir.AssignScalar{Dst: r, Src: &ir.VarRef{V: i}}},
				},
			}
		})
		assertSame(t, prog, [][]float64{{1}})
		assertSame(t, prog, [][]float64{{0}})
	})

	t.Run("compound loop bounds", func(t *testing.T) {
		// Compound bounds are evaluated into temporaries, charged, then
		// copied by opForInit; x = 0 makes the step zero.
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			i := p.FreshVar("i", 1, 1, true)
			return []ir.Stmt{
				&ir.For{
					IVar: i,
					Lo:   &ir.Const{Val: 1},
					Hi:   &ir.Bin{Op: ir.OpAdd, X: &ir.VarRef{V: x}, Y: &ir.Const{Val: 2}},
					Step: &ir.Bin{Op: ir.OpMul, X: &ir.VarRef{V: x}, Y: &ir.Const{Val: 0.5}},
					Trip: 8,
					Body: []ir.Stmt{&ir.AssignScalar{Dst: r, Src: &ir.Bin{Op: ir.OpAdd, X: &ir.VarRef{V: r}, Y: &ir.VarRef{V: i}}}},
				},
			}
		})
		assertSame(t, prog, [][]float64{{2}})
		assertSame(t, prog, [][]float64{{0}})
		assertSame(t, prog, [][]float64{{-1}})
		assertSame(t, prog, [][]float64{{9}})
	})

	t.Run("trip count exceeded", func(t *testing.T) {
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			i := p.FreshVar("i", 1, 1, true)
			return []ir.Stmt{
				&ir.For{
					IVar: i,
					Lo:   &ir.Const{Val: 1}, Hi: &ir.VarRef{V: x}, Step: &ir.Const{Val: 1},
					Trip: 4,
					Body: []ir.Stmt{&ir.AssignScalar{Dst: r, Src: &ir.VarRef{V: i}}},
				},
			}
		})
		assertSame(t, prog, [][]float64{{4}})
		assertSame(t, prog, [][]float64{{10}})
	})

	t.Run("boxed intrinsic", func(t *testing.T) {
		// sum, size and zeros register only a boxed Eval (no Scalar1 or
		// Scalar2), so both interpreters take the boxed call path for
		// either arity, and zeros' dimension check fails on -0.5.
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			return []ir.Stmt{
				&ir.AssignScalar{Dst: r, Src: &ir.Bin{
					Op: ir.OpAdd,
					X:  &ir.Intrinsic{Name: "sum", Args: []ir.Expr{&ir.VarRef{V: x}}},
					Y:  &ir.Intrinsic{Name: "size", Args: []ir.Expr{&ir.VarRef{V: x}, &ir.Const{Val: 2}}},
				}},
				&ir.AssignScalar{Dst: r, Src: &ir.Intrinsic{Name: "zeros", Args: []ir.Expr{&ir.VarRef{V: x}, &ir.Const{Val: 1}}}},
			}
		})
		assertSame(t, prog, [][]float64{{3}})
		assertSame(t, prog, [][]float64{{-0.5}})
	})

	t.Run("induction variable clobbered by body", func(t *testing.T) {
		prog := build(func(p *ir.Program, x, r *ir.Var) []ir.Stmt {
			i := p.FreshVar("i", 1, 1, true)
			return []ir.Stmt{
				&ir.For{
					IVar: i,
					Lo:   &ir.Const{Val: 1}, Hi: &ir.Const{Val: 5}, Step: &ir.Const{Val: 1},
					Trip: 5,
					Body: []ir.Stmt{
						&ir.AssignScalar{Dst: r, Src: &ir.Bin{Op: ir.OpAdd, X: &ir.VarRef{V: r}, Y: &ir.VarRef{V: i}}},
						&ir.AssignScalar{Dst: i, Src: &ir.Const{Val: 100}},
					},
				},
			}
		})
		assertSame(t, prog, [][]float64{{0}})
	})
}

// TestVMFuelExhaustion pins the fuel semantics: both interpreters hit the
// budget at the same statement with the same meter prefix, on both
// streams.
func TestVMFuelExhaustion(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  r = 0
  for i = 1:1000
    r = r + x
  end
endfunction`, "f", ir.ScalarArg())
	inputs := [][]float64{{1}}
	cp, err := vm.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, fuel := range []int{1, 2, 3, 50, 51, 52, 1000} {
		for _, s := range streams {
			sameOutcome(t, fmt.Sprintf("fuel=%d %s", fuel, s.name),
				runTree(prog, inputs, s.metered, fuel), runVM(cp, inputs, s.metered, fuel))
		}
	}
}

// TestVMRegions splits a program body in two and executes the halves as
// separate regions with separate meters — the simulator's per-task
// execution shape — requiring identical per-region event sequences and
// carried scalar/matrix state.
func TestVMRegions(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  a = zeros(2, 3)
  for k = 1:6
    a(k) = k * x
  end
  s = 0
  for k = 1:6
    s = s + a(k)
  end
  r = s + a(2, 2)
endfunction`, "f", ir.ScalarArg())
	body := prog.Entry.Body
	if len(body) < 2 {
		t.Fatalf("body too short to split: %d", len(body))
	}
	cut := len(body) / 2
	regions := [][]ir.Stmt{body[:cut], body[cut:]}
	inputs := [][]float64{{0.5}}

	ex := ir.NewExec(prog, nil)
	if err := ex.Init(inputs); err != nil {
		t.Fatal(err)
	}
	var treeEvents [][]string
	for _, r := range regions {
		rm := &recMeter{}
		ex.SetMeter(rm)
		if err := ex.ExecBlock(r); err != nil {
			t.Fatal(err)
		}
		treeEvents = append(treeEvents, rm.events)
	}
	treeOut := ex.Results()

	cp, err := vm.CompileRegions(prog, regions)
	if err != nil {
		t.Fatalf("compile regions: %v", err)
	}
	if cp.NumRegions() != 2 {
		t.Fatalf("regions = %d", cp.NumRegions())
	}
	m := vm.NewMachine(cp, nil)
	if err := m.Init(inputs); err != nil {
		t.Fatal(err)
	}
	for i := range regions {
		rm := &recMeter{}
		m.SetMeter(rm)
		if err := m.ExecRegion(i); err != nil {
			t.Fatal(err)
		}
		if strings.Join(rm.events, ";") != strings.Join(treeEvents[i], ";") {
			t.Fatalf("region %d meter mismatch:\ntree: %v\nvm:   %v", i, treeEvents[i], rm.events)
		}
	}
	vmOut := m.Results()

	for i := range treeOut {
		for j := range treeOut[i] {
			if math.Float64bits(treeOut[i][j]) != math.Float64bits(vmOut[i][j]) {
				t.Fatalf("result[%d][%d]: tree=%v vm=%v", i, j, treeOut[i][j], vmOut[i][j])
			}
		}
	}
}

// TestVMMachineReuse checks pooled reuse: the same Machine re-Init'd (and
// Reset onto a different program) keeps producing oracle-identical runs.
func TestVMMachineReuse(t *testing.T) {
	u := usecases.All()[0]
	sp, err := u.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(sp, u.Entry, u.Args)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := vm.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(cp, nil)
	ex := ir.NewExec(prog, nil)
	for seed := int64(1); seed <= 3; seed++ {
		inputs := u.Inputs(seed)
		want, err := ex.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(inputs); err != nil {
			t.Fatal(err)
		}
		if err := m.ExecEntry(); err != nil {
			t.Fatal(err)
		}
		got := m.Results()
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
					t.Fatalf("seed %d result[%d][%d]: tree=%v vm=%v", seed, i, j, want[i][j], got[i][j])
				}
			}
		}
	}
}

// TestVMUseCases runs the full differential check (results + meter event
// sequences) over every validation application.
func TestVMUseCases(t *testing.T) {
	for _, u := range usecases.All() {
		t.Run(u.Name, func(t *testing.T) {
			sp, err := u.Program()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ir.Lower(sp, u.Entry, u.Args)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				assertSame(t, prog, u.Inputs(seed))
			}
		})
	}
}
