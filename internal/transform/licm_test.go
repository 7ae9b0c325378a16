package transform

import (
	"math/rand"
	"testing"

	"argo/internal/adl"
	"argo/internal/ir"
	"argo/internal/scil"
	"argo/internal/wcet"
)

func TestHoistInvariantsReducesWCET(t *testing.T) {
	src := `
function r = f(a, b, v)
  r = 0
  for i = 1:50
    k = sqrt(abs(a)) + b * 3
    r = r + v(1, i) * k
  end
endfunction`
	orig := compile(t, src, "f", ir.ScalarArg(), ir.ScalarArg(), ir.MatrixArg(1, 50))
	x := cloneProg(orig)
	n := HoistInvariants(x)
	if n == 0 {
		t.Fatal("nothing hoisted")
	}
	assertSameBehaviour(t, orig, x)
	m := wcet.ModelFor(adl.XentiumPlatform(1), 0)
	before := wcet.Structural(orig.Entry.Body, m)
	after := wcet.Structural(x.Entry.Body, m)
	if after >= before {
		t.Fatalf("hoisting did not reduce the bound: %d -> %d", before, after)
	}
}

func TestHoistRefusesLoopDependent(t *testing.T) {
	src := `
function r = f(v)
  r = 0
  for i = 1:10
    k = i * 2
    acc = r + 1
    r = acc + v(1, i) + k
  end
endfunction`
	orig := compile(t, src, "f", ir.MatrixArg(1, 10))
	x := cloneProg(orig)
	HoistInvariants(x)
	// k depends on i, acc on r: neither may move.
	assertSameBehaviour(t, orig, x)
	for _, s := range x.Entry.Body {
		if as, ok := s.(*ir.AssignScalar); ok {
			if as.Dst.Name == "k" || as.Dst.Name == "acc" {
				t.Fatalf("loop-dependent assignment %s hoisted", as.Dst.Name)
			}
		}
	}
}

func TestHoistRefusesWhenMatrixWritten(t *testing.T) {
	// k reads m which the loop writes: not invariant.
	src := `
function r = f(m)
  r = 0
  for i = 1:4
    k = m(1, 1) * 2
    m(1, 1) = m(1, 1) + 1
    r = r + k
  end
endfunction`
	orig := compile(t, src, "f", ir.MatrixArg(2, 2))
	x := cloneProg(orig)
	HoistInvariants(x)
	assertSameBehaviour(t, orig, x)
}

func TestHoistNestedLoops(t *testing.T) {
	src := `
function r = f(a, img)
  r = 0
  for i = 1:6
    for j = 1:6
      w = sqrt(abs(a)) * 0.5
      r = r + img(i, j) * w
    end
  end
endfunction`
	orig := compile(t, src, "f", ir.ScalarArg(), ir.MatrixArg(6, 6))
	x := cloneProg(orig)
	n := HoistInvariants(x)
	if n == 0 {
		t.Fatal("nested invariant not hoisted")
	}
	assertSameBehaviour(t, orig, x)
}

func TestHoistOnRandomPrograms(t *testing.T) {
	cfg := scil.DefaultGenConfig()
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(3000 + seed)))
		p := scil.Generate(rng, cfg)
		orig, err := ir.Lower(p, "fuzz", []ir.ArgSpec{ir.MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		x := cloneProg(orig)
		HoistInvariants(x)
		assertSameBehaviour(t, orig, x, int64(seed), int64(seed+77))
	}
}

// refHoistFromLoop is the hoistFromLoop replaced, kept as the reference
// it must agree with: it grows a read set statement by statement from
// fresh use sets and checks each source through its own use sets.
func refHoistFromLoop(loop *ir.For) (hoisted, rest []ir.Stmt) {
	if loop.Trip < 1 || hasLooseJumps(loop.Body) {
		return nil, loop.Body
	}
	bodyUses := ir.ComputeUses(loop.Body)
	writtenScalars := map[*ir.Var]bool{loop.IVar: true}
	bodyUses.ScalWrite().Each(func(v *ir.Var) bool {
		writtenScalars[v] = true
		return true
	})
	writeCount := map[*ir.Var]int{}
	ir.WalkStmts(loop.Body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.AssignScalar:
			writeCount[st.Dst]++
		case *ir.For:
			writeCount[st.IVar] += 2
		}
		return true
	})
	readBefore := map[*ir.Var]bool{}
	for _, s := range loop.Body {
		as, isAssign := s.(*ir.AssignScalar)
		movable := false
		if isAssign && writeCount[as.Dst] == 1 && !readBefore[as.Dst] {
			srcUses := ir.ExprUses(as.Src)
			movable = srcUses.ScalReads().Each(func(v *ir.Var) bool { return !writtenScalars[v] }) &&
				srcUses.MatReads().EachCommon(bodyUses.MatWrites(), func(*ir.Var) bool { return false })
		}
		if movable {
			hoisted = append(hoisted, as)
		} else {
			rest = append(rest, s)
		}
		ir.ComputeUses([]ir.Stmt{s}).ScalReads().Each(func(v *ir.Var) bool {
			readBefore[v] = true
			return true
		})
	}
	return hoisted, rest
}

// TestHoistMatchesReference compares hoistFromLoop with the reference on
// every loop of generated programs, as lowered and after the structural
// transformations, and on hand-built loops whose destinations are read
// first, read by their own source, or read under a branch.
func TestHoistMatchesReference(t *testing.T) {
	var loops []*ir.For
	collect := func(stmts []ir.Stmt) {
		ir.WalkStmts(stmts, func(s ir.Stmt) bool {
			if f, ok := s.(*ir.For); ok {
				loops = append(loops, f)
			}
			return true
		})
	}
	opt := DefaultOptions()
	opt.Fusion, opt.ElideInits, opt.UnrollFactor, opt.ParallelChunks = true, true, 2, 4
	cfg := scil.DefaultGenConfig()
	for seed := int64(0); seed < 60; seed++ {
		p := scil.Generate(rand.New(rand.NewSource(seed)), cfg)
		prog, err := ir.Lower(p, "fuzz", []ir.ArgSpec{ir.MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		collect(prog.Entry.Body)
		x := cloneProg(prog)
		Apply(x, opt)
		collect(x.Entry.Body)
	}
	scalar := func(name string) *ir.Var { return &ir.Var{Name: name, Scalar: true} }
	i, j, k, c := scalar("i"), scalar("j"), scalar("k"), scalar("c")
	num := func(f float64) ir.Expr { return &ir.Const{Val: f} }
	ref := func(v *ir.Var) ir.Expr { return &ir.VarRef{V: v} }
	set := func(v *ir.Var, e ir.Expr) ir.Stmt { return &ir.AssignScalar{Dst: v, Src: e} }
	loop := func(body ...ir.Stmt) *ir.For {
		return &ir.For{IVar: i, Lo: num(1), Step: num(1), Hi: num(4), Trip: 4, Body: body}
	}
	loops = append(loops,
		loop(set(j, ref(k)), set(k, num(2))),
		loop(set(k, &ir.Bin{Op: ir.OpAdd, X: ref(k), Y: num(1)})),
		loop(&ir.If{Cond: ref(k), Then: []ir.Stmt{set(j, ref(c))}}, set(k, num(3))),
		loop(set(k, ref(c)), set(j, ref(k))),
	)
	hoistedAny := 0
	for n, l := range loops {
		gotH, gotR := hoistFromLoop(l)
		wantH, wantR := refHoistFromLoop(l)
		if !sameStmts(gotH, wantH) || !sameStmts(gotR, wantR) {
			t.Fatalf("loop %d: hoisted %d and kept %d statements, reference %d and %d", n, len(gotH), len(gotR), len(wantH), len(wantR))
		}
		hoistedAny += len(gotH)
	}
	if hoistedAny == 0 {
		t.Fatalf("vacuous corpus: nothing hoisted from %d loops", len(loops))
	}
}

func sameStmts(a, b []ir.Stmt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
