package scil

import (
	"strings"
	"sync"
	"testing"
)

func checkErrs(t *testing.T, src string, mode CheckMode) []error {
	t.Helper()
	p := mustParse(t, src)
	return Check(p, mode)
}

func TestCheckValidProgram(t *testing.T) {
	errs := checkErrs(t, `
function [s, m] = stats(v)
  s = sum(v)
  m = s / length(v)
endfunction

function r = f(n)
  v = zeros(1, n)
  for i = 1:n
    v(i) = i * i
  end
  [s, m] = stats(v)
  r = s - m
endfunction`, CheckWCET)
	if len(errs) != 0 {
		t.Fatalf("unexpected: %v", errs)
	}
}

func TestCheckResolvesCallKinds(t *testing.T) {
	p := mustParse(t, `
function r = g(x)
  r = x * 2
endfunction

function r = f(a)
  m = zeros(2, 2)
  r = m(1, 1) + g(a) + abs(a)
endfunction`)
	c := check(p, CheckBasic)
	if len(c.errs) != 0 {
		t.Fatalf("errors: %v", c.errs)
	}
	rhs := p.Func("f").Body[1].(*AssignStmt).RHS
	var kinds []CallKind
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *CallExpr:
			kinds = append(kinds, c.kinds[x])
		case *BinExpr:
			walk(x.X)
			walk(x.Y)
		}
	}
	walk(rhs)
	want := []CallKind{CallIndex, CallUser, CallBuiltin}
	if len(kinds) != 3 {
		t.Fatalf("kinds: %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("call %d: kind %d, want %d", i, kinds[i], want[i])
		}
	}
}

// TestCheckConcurrentOnSharedProgram: Check only reads the program, so
// concurrent compiles may share one parsed model (the race detector
// flags any write).
func TestCheckConcurrentOnSharedProgram(t *testing.T) {
	p := mustParse(t, `
function [s, m] = stats(v)
  s = sum(v)
  m = s / length(v)
endfunction

function r = f(n)
  v = zeros(1, n)
  for i = 1:n
    v(i) = i * i
  end
  [s, m] = stats(v)
  r = s - m + v(1)
endfunction`)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs := Check(p, CheckWCET); len(errs) != 0 {
				t.Errorf("unexpected: %v", errs)
			}
		}()
	}
	wg.Wait()
}

func TestCheckUndefinedVariable(t *testing.T) {
	errs := checkErrs(t, `
function r = f(x)
  r = x + undefined_name
endfunction`, CheckBasic)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "undefined") {
		t.Fatalf("errs: %v", errs)
	}
}

func TestCheckUnassignedResult(t *testing.T) {
	errs := checkErrs(t, `
function r = f(x)
  y = x
endfunction`, CheckBasic)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "never assigned") {
		t.Fatalf("errs: %v", errs)
	}
}

func TestCheckWhileBoundRequiredOnlyInWCETMode(t *testing.T) {
	src := `
function r = f(x)
  r = x
  while r > 1
    r = r / 2
  end
endfunction`
	if errs := checkErrs(t, src, CheckBasic); len(errs) != 0 {
		t.Fatalf("basic mode should accept: %v", errs)
	}
	errs := checkErrs(t, src, CheckWCET)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "@bound") {
		t.Fatalf("WCET mode errs: %v", errs)
	}
}

func TestCheckRecursionRejected(t *testing.T) {
	errs := checkErrs(t, `
function r = a(x)
  r = b(x)
endfunction
function r = b(x)
  r = a(x)
endfunction`, CheckWCET)
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "recursive") {
			found = true
		}
	}
	if !found {
		t.Fatalf("errs: %v", errs)
	}
}

func TestCheckSelfRecursionRejected(t *testing.T) {
	errs := checkErrs(t, `
function r = f(x)
  r = f(x - 1)
endfunction`, CheckWCET)
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "recursive") {
			found = true
		}
	}
	if !found {
		t.Fatalf("errs: %v", errs)
	}
}

func TestCheckArityErrors(t *testing.T) {
	errs := checkErrs(t, `
function r = g(a, b)
  r = a + b
endfunction
function r = f(x)
  r = g(x) + zeros(1, 2, 3)
endfunction`, CheckBasic)
	if len(errs) < 2 {
		t.Fatalf("want 2+ arity errors, got: %v", errs)
	}
}

func TestCheckBreakOutsideLoop(t *testing.T) {
	errs := checkErrs(t, `
function r = f(x)
  r = x
  break
endfunction`, CheckBasic)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "break") {
		t.Fatalf("errs: %v", errs)
	}
}

func TestCheckDuplicateParams(t *testing.T) {
	errs := checkErrs(t, `
function r = f(x, x)
  r = x
endfunction`, CheckBasic)
	if len(errs) == 0 || !strings.Contains(errs[0].Error(), "duplicate parameter") {
		t.Fatalf("errs: %v", errs)
	}
}

func TestCheckVariableShadowsBuiltinIndexing(t *testing.T) {
	// "sum" assigned as a variable: sum(2) then means indexing, needing
	// 1-2 subscripts — valid — and resolves as CallIndex.
	p := mustParse(t, `
function r = f(x)
  sum = [10, 20, 30]
  r = sum(2)
endfunction`)
	c := check(p, CheckBasic)
	if len(c.errs) != 0 {
		t.Fatalf("errs: %v", c.errs)
	}
	rhs := p.Func("f").Body[1].(*AssignStmt).RHS.(*CallExpr)
	if kind := c.kinds[rhs]; kind != CallIndex {
		t.Fatalf("kind = %d, want CallIndex", kind)
	}
	// And the interpreter agrees.
	out, err := NewInterp(p).Call("f", Scalar(0))
	if err != nil || out[0].ScalarVal() != 20 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

func TestBuiltinTableComplete(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 20 {
		t.Fatalf("only %d builtins registered", len(names))
	}
	for _, n := range names {
		b := LookupBuiltin(n)
		if b == nil || b.Eval == nil || b.MaxArgs < b.MinArgs || b.Cost <= 0 {
			t.Errorf("builtin %q malformed: %+v", n, b)
		}
	}
}
