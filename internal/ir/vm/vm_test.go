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

// assertSame runs prog under both interpreters with recording meters and
// requires bit-identical results, identical error strings, and identical
// meter event sequences.
func assertSame(t *testing.T, prog *ir.Program, inputs [][]float64) {
	t.Helper()
	tm := &recMeter{}
	ex := ir.NewExec(prog, tm)
	treeOut, treeErr := ex.Run(inputs)

	vmMeter := &recMeter{}
	vmOut, vmErr := vm.Run(prog, vmMeter, inputs)

	if (treeErr == nil) != (vmErr == nil) ||
		(treeErr != nil && treeErr.Error() != vmErr.Error()) {
		t.Fatalf("error mismatch: tree=%v vm=%v", treeErr, vmErr)
	}
	if treeErr == nil {
		if len(treeOut) != len(vmOut) {
			t.Fatalf("result arity: tree=%d vm=%d", len(treeOut), len(vmOut))
		}
		for i := range treeOut {
			if len(treeOut[i]) != len(vmOut[i]) {
				t.Fatalf("result %d length: tree=%d vm=%d", i, len(treeOut[i]), len(vmOut[i]))
			}
			for j := range treeOut[i] {
				if math.Float64bits(treeOut[i][j]) != math.Float64bits(vmOut[i][j]) {
					t.Fatalf("result[%d][%d]: tree=%v vm=%v", i, j, treeOut[i][j], vmOut[i][j])
				}
			}
		}
	}
	if len(tm.events) != len(vmMeter.events) {
		t.Fatalf("meter event count: tree=%d vm=%d\ntree tail: %v\nvm tail: %v",
			len(tm.events), len(vmMeter.events), tail(tm.events), tail(vmMeter.events))
	}
	for i := range tm.events {
		if tm.events[i] != vmMeter.events[i] {
			t.Fatalf("meter event %d: tree=%q vm=%q", i, tm.events[i], vmMeter.events[i])
		}
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
// budget at the same statement with the same meter prefix.
func TestVMFuelExhaustion(t *testing.T) {
	prog := lower(t, `
function r = f(x)
  r = 0
  for i = 1:1000
    r = r + x
  end
endfunction`, "f", ir.ScalarArg())
	inputs := [][]float64{{1}}

	for _, fuel := range []int{1, 2, 3, 50, 51, 52, 1000} {
		tm := &recMeter{}
		ex := ir.NewExec(prog, tm)
		var treeErr error
		if treeErr = ex.Init(inputs); treeErr == nil {
			ex.SetFuel(fuel)
			treeErr = ex.ExecBlock(prog.Entry.Body)
		}

		cp, err := vm.Compile(prog)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		vmMeter := &recMeter{}
		m := vm.NewMachine(cp, vmMeter)
		var vmErr error
		if vmErr = m.Init(inputs); vmErr == nil {
			m.SetFuel(fuel)
			vmErr = m.ExecEntry()
		}

		if (treeErr == nil) != (vmErr == nil) ||
			(treeErr != nil && treeErr.Error() != vmErr.Error()) {
			t.Fatalf("fuel=%d error mismatch: tree=%v vm=%v", fuel, treeErr, vmErr)
		}
		if strings.Join(tm.events, ";") != strings.Join(vmMeter.events, ";") {
			t.Fatalf("fuel=%d meter mismatch:\ntree: %v\nvm:   %v", fuel, tm.events, vmMeter.events)
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
