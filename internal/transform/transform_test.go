package transform

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"argo/internal/ir"
	"argo/internal/scil"
)

// compile lowers a scil source for testing.
func compile(t *testing.T, src, entry string, args ...ir.ArgSpec) *ir.Program {
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

// randInputs builds deterministic pseudo-random inputs for the program.
func randInputs(prog *ir.Program, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var out [][]float64
	for _, p := range prog.Entry.Params {
		buf := make([]float64, p.Elems())
		for i := range buf {
			buf[i] = math.Round(rng.Float64()*200-100) / 4
		}
		out = append(out, buf)
	}
	return out
}

// assertSameBehaviour runs both programs on identical random inputs and
// compares all results.
func assertSameBehaviour(t *testing.T, orig, xformed *ir.Program, seeds ...int64) {
	t.Helper()
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 7, 42}
	}
	for _, seed := range seeds {
		in := randInputs(orig, seed)
		want, err := ir.NewExec(orig, nil).Run(in)
		if err != nil {
			t.Fatalf("seed %d: original run: %v", seed, err)
		}
		got, err := ir.NewExec(xformed, nil).Run(in)
		if err != nil {
			t.Fatalf("seed %d: transformed run: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: result count %d vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("seed %d result %d: length %d vs %d", seed, i, len(got[i]), len(want[i]))
			}
			for k := range want[i] {
				w, g := want[i][k], got[i][k]
				if math.IsNaN(w) && math.IsNaN(g) {
					continue
				}
				if math.Abs(w-g) > 1e-9*(1+math.Abs(w)) {
					t.Fatalf("seed %d result %d elem %d: %g vs %g", seed, i, k, g, w)
				}
			}
		}
	}
}

// cloneProg deep-copies the entry body so transforms don't affect the
// original (variables are shared, which is fine for execution).
func cloneProg(p *ir.Program) *ir.Program {
	cp := *p
	entry := *p.Entry
	entry.Body = ir.CloneStmts(p.Entry.Body)
	cp.Entry = &entry
	return &cp
}

const fissionSrc = `
function [edges, smooth] = f(img)
  h = size(img, 1)
  w = size(img, 2)
  edges = zeros(h, w)
  smooth = zeros(h, w)
  for i = 1:h
    for j = 1:w
      g = img(i, j) * 0.5
      edges(i, j) = g - 1
      smooth(i, j) = g + img(i, j) * 0.25
    end
  end
endfunction`

func TestFissionSplitsAndPreserves(t *testing.T) {
	orig := compile(t, fissionSrc, "f", ir.MatrixArg(8, 6))
	x := cloneProg(orig)
	created := FissionAll(x)
	if created == 0 {
		t.Fatal("expected fission to split the nest")
	}
	assertSameBehaviour(t, orig, x)
}

func TestFissionReplicatesScalarDefs(t *testing.T) {
	orig := compile(t, fissionSrc, "f", ir.MatrixArg(5, 5))
	x := cloneProg(orig)
	FissionAll(x)
	// The split nests must both compute g (redundant computation).
	loops := 0
	for _, s := range x.Entry.Body {
		if _, ok := s.(*ir.For); ok {
			loops++
		}
	}
	if loops < 4 { // 2 zeros fills + >= 2 split compute nests
		t.Fatalf("top-level loops after fission = %d", loops)
	}
}

func TestFissionRefusesReduction(t *testing.T) {
	// acc accumulates across iterations: distributing the two statements
	// would reorder reads of acc — must refuse to split them apart.
	src := `
function [r, m] = f(v)
  n = length(v)
  m = zeros(1, n)
  r = 0
  for i = 1:n
    r = r + v(i)
    m(1, i) = r
  end
endfunction`
	orig := compile(t, src, "f", ir.MatrixArg(1, 10))
	x := cloneProg(orig)
	FissionAll(x)
	assertSameBehaviour(t, orig, x)
}

func TestFissionRefusesBackwardDependence(t *testing.T) {
	// b(i) reads a(i+1): after distribution the read would see updated
	// values. The index signature a(i+1) is not zero-offset, so fission
	// must keep the statements together.
	src := `
function b = f(a)
  n = length(a)
  b = zeros(1, n)
  for i = 1:n-1
    b(1, i) = a(1, i + 1)
    a(1, i) = 0
  end
endfunction`
	orig := compile(t, src, "f", ir.MatrixArg(1, 12))
	x := cloneProg(orig)
	FissionAll(x)
	assertSameBehaviour(t, orig, x)
}

func TestUnrollExactAndRemainder(t *testing.T) {
	src := `
function r = f(v)
  r = 0
  for i = 1:10
    r = r + v(1, i) * i
  end
endfunction`
	for _, k := range []int{2, 3, 4, 5, 7, 10, 16} {
		orig := compile(t, src, "f", ir.MatrixArg(1, 10))
		x := cloneProg(orig)
		n := UnrollInnermost(x, k)
		if n == 0 {
			t.Fatalf("k=%d: nothing unrolled", k)
		}
		assertSameBehaviour(t, orig, x)
	}
}

func TestUnrollKeepsTripCountsConsistent(t *testing.T) {
	src := `
function r = f(v)
  r = 0
  for i = 1:10
    r = r + v(1, i)
  end
endfunction`
	x := compile(t, src, "f", ir.MatrixArg(1, 10))
	UnrollInnermost(x, 4)
	total := 0
	ir.WalkStmts(x.Entry.Body, func(s ir.Stmt) bool {
		if f, ok := s.(*ir.For); ok {
			// Each main-loop iteration covers 4 original ones.
			total += f.Trip
		}
		return true
	})
	if total != 2+2 { // main loop 2 trips + remainder 2 trips
		t.Fatalf("total trips after unroll = %d", total)
	}
}

func TestIndexSetSplit(t *testing.T) {
	src := `
function r = f(v)
  r = 0
  for i = 1:12
    r = r + v(1, i) * i
  end
endfunction`
	for _, m := range []int{1, 5, 6, 11} {
		orig := compile(t, src, "f", ir.MatrixArg(1, 12))
		x := cloneProg(orig)
		var replaced bool
		var out []ir.Stmt
		for _, s := range x.Entry.Body {
			if loop, ok := s.(*ir.For); ok && !replaced {
				if parts, did := IndexSetSplit(loop, m); did {
					replaced = true
					for _, p := range parts {
						out = append(out, p)
					}
					continue
				}
			}
			out = append(out, s)
		}
		if !replaced {
			t.Fatalf("m=%d: split failed", m)
		}
		x.Entry.Body = out
		assertSameBehaviour(t, orig, x)
	}
}

func TestFuseElementwiseLoops(t *testing.T) {
	src := `
function [a, b] = f(v)
  n = length(v)
  a = zeros(1, n)
  b = zeros(1, n)
  for i = 1:n
    a(1, i) = v(1, i) * 2
  end
  for i = 1:n
    b(1, i) = v(1, i) + 1
  end
endfunction`
	orig := compile(t, src, "f", ir.MatrixArg(1, 16))
	x := cloneProg(orig)
	fused := FuseAll(x)
	if fused == 0 {
		t.Fatal("expected at least one fusion")
	}
	assertSameBehaviour(t, orig, x)
}

func TestFuseRefusesProducerConsumerWithOffset(t *testing.T) {
	// Second loop reads a(i+1) written by the first: fusing would read
	// stale values; signatures differ so fusion must refuse.
	src := `
function b = f(v)
  n = length(v)
  a = zeros(1, n)
  b = zeros(1, n)
  for i = 1:n
    a(1, i) = v(1, i) * 2
  end
  for i = 1:n-1
    b(1, i) = a(1, i + 1)
  end
endfunction`
	orig := compile(t, src, "f", ir.MatrixArg(1, 10))
	x := cloneProg(orig)
	FuseAll(x)
	assertSameBehaviour(t, orig, x)
}

func TestTilePreservesSemantics(t *testing.T) {
	src := `
function out = f(img)
  h = size(img, 1)
  w = size(img, 2)
  out = zeros(h, w)
  for i = 1:h
    for j = 1:w
      out(i, j) = img(i, j) * 2 + i - j
    end
  end
endfunction`
	for _, tile := range [][2]int{{2, 2}, {3, 4}, {5, 7}, {16, 16}} {
		orig := compile(t, src, "f", ir.MatrixArg(9, 11))
		x := cloneProg(orig)
		n := TileTopLevel(x, tile[0], tile[1])
		if n == 0 {
			t.Fatalf("tile %v: nothing tiled", tile)
		}
		assertSameBehaviour(t, orig, x)
	}
}

func TestTileRefusesReduction(t *testing.T) {
	src := `
function r = f(img)
  r = 0
  for i = 1:8
    for j = 1:8
      r = r + img(i, j)
    end
  end
endfunction`
	orig := compile(t, src, "f", ir.MatrixArg(8, 8))
	x := cloneProg(orig)
	n := TileTopLevel(x, 4, 4)
	if n != 0 {
		t.Fatal("tiling a reduction must be refused")
	}
	assertSameBehaviour(t, orig, x)
}

func TestFoldConstants(t *testing.T) {
	src := `
function r = f(x)
  a = 2 + 3
  if 1 > 0 then
    r = x * a + 0
  else
    r = 999
  end
endfunction`
	orig := compile(t, src, "f", ir.ScalarArg())
	x := cloneProg(orig)
	n := FoldConstants(x)
	if n == 0 {
		t.Fatal("expected folds")
	}
	// The constant if must be flattened away.
	hasIf := false
	ir.WalkStmts(x.Entry.Body, func(s ir.Stmt) bool {
		if _, ok := s.(*ir.If); ok {
			hasIf = true
		}
		return true
	})
	if hasIf {
		t.Fatal("constant if should be flattened")
	}
	assertSameBehaviour(t, orig, x)
}

// TestFoldConstantsMatchesExec: folding a constant operator or builtin
// call (scalar fast path and boxed Eval alike) yields exactly the bits
// ir.Exec computes for the unfolded expression.
func TestFoldConstantsMatchesExec(t *testing.T) {
	c := func(v float64) ir.Expr { return &ir.Const{Val: v} }
	for _, e := range []ir.Expr{
		&ir.Un{Op: ir.OpNeg, X: c(0.1)},
		&ir.Un{Op: ir.OpNot, X: c(0)},
		&ir.Un{Op: ir.OpNot, X: c(math.NaN())},
		&ir.Bin{Op: ir.OpPow, X: c(1.1), Y: c(0.3)},
		&ir.Bin{Op: ir.OpDiv, X: c(1), Y: c(3)},
		&ir.Intrinsic{Name: "sqrt", Args: []ir.Expr{c(2)}},
		&ir.Intrinsic{Name: "atan", Args: []ir.Expr{c(1), c(3)}},
		&ir.Intrinsic{Name: "sum", Args: []ir.Expr{c(0.7)}},
	} {
		orig := &ir.Program{}
		r := orig.NewVar(&ir.Var{Name: "r", Scalar: true, Result: true})
		orig.Entry = &ir.Func{Name: "f", Results: []*ir.Var{r},
			Body: []ir.Stmt{&ir.AssignScalar{Dst: r, Src: e}}}
		want, err := ir.NewExec(orig, nil).Run(nil)
		if err != nil {
			t.Fatalf("%s: %v", ir.ExprString(e), err)
		}
		folded := cloneProg(orig)
		FoldConstants(folded)
		got, ok := folded.Entry.Body[0].(*ir.AssignScalar).Src.(*ir.Const)
		if !ok || math.Float64bits(got.Val) != math.Float64bits(want[0][0]) {
			t.Errorf("%s folded to %s, Exec computes %v", ir.ExprString(e),
				ir.ExprString(folded.Entry.Body[0].(*ir.AssignScalar).Src), want[0][0])
		}
	}
}

func TestPromoteScratchpadSelectsHotVars(t *testing.T) {
	src := `
function r = f(big, small)
  r = 0
  for rep = 1:20
    for i = 1:4
      r = r + small(1, i)
    end
  end
  for i = 1:8
    r = r + big(1, i)
  end
endfunction`
	prog := compile(t, src, "f", ir.MatrixArg(1, 8), ir.MatrixArg(1, 4))
	dec := PromoteScratchpad(prog, SPMOptions{
		CapacityBytes:  4 * 8, // room for exactly the small hot vector
		SharedLatency:  20,
		SPMLatency:     2,
		DMACostPerByte: 0.5,
	})
	if len(dec.Promoted) != 1 {
		t.Fatalf("promoted %d vars, want 1", len(dec.Promoted))
	}
	v := dec.Promoted[0]
	if v.Elems() != 4 {
		t.Fatalf("promoted %s, want the hot 4-element vector", v)
	}
	if v.Storage != ir.StorageSPM {
		t.Fatalf("storage = %v", v.Storage)
	}
	if dec.GainCycles <= 0 || dec.BytesUsed != 32 {
		t.Fatalf("decision: %+v", dec)
	}
}

func TestPromoteScratchpadRespectsCapacity(t *testing.T) {
	src := `
function r = f(a, b)
  r = sum(a) + sum(b)
endfunction`
	prog := compile(t, src, "f", ir.MatrixArg(4, 4), ir.MatrixArg(4, 4))
	dec := PromoteScratchpad(prog, SPMOptions{
		CapacityBytes:  16*8 + 8, // one matrix fits, not both
		SharedLatency:  20,
		SPMLatency:     2,
		DMACostPerByte: 0.1,
	})
	if dec.BytesUsed > 16*8+8 {
		t.Fatalf("capacity exceeded: %d", dec.BytesUsed)
	}
	if len(dec.Promoted) != 1 {
		t.Fatalf("promoted %d vars, want 1", len(dec.Promoted))
	}
}

func TestPromoteScratchpadKnapsackOptimal(t *testing.T) {
	// Three vars: sizes 6,5,5 elems; the two 5s together beat the 6 when
	// capacity is 10 words, even though the 6 has the single largest gain.
	src := `
function r = f(a, b, c)
  r = 0
  for rep = 1:10
    r = r + sum(a)
  end
  for rep = 1:7
    r = r + sum(b) + sum(c)
  end
endfunction`
	prog := compile(t, src, "f", ir.MatrixArg(1, 6), ir.MatrixArg(1, 5), ir.MatrixArg(1, 5))
	dec := PromoteScratchpad(prog, SPMOptions{
		CapacityBytes:  10 * 8,
		SharedLatency:  10,
		SPMLatency:     1,
		DMACostPerByte: 0,
	})
	if len(dec.Promoted) != 2 {
		t.Fatalf("promoted %d vars, want the two 5-element vectors: %v", len(dec.Promoted), dec.Promoted)
	}
	for _, v := range dec.Promoted {
		if v.Elems() != 5 {
			t.Fatalf("promoted %s", v)
		}
	}
}

func TestApplyPipelineEndToEnd(t *testing.T) {
	orig := compile(t, fissionSrc, "f", ir.MatrixArg(10, 10))
	x := cloneProg(orig)
	rep := Apply(x, Options{
		Fold: true, Fission: true, UnrollFactor: 2,
		SPM: &SPMOptions{CapacityBytes: 1 << 12, SharedLatency: 20, SPMLatency: 2, DMACostPerByte: 0.25},
	})
	if rep.FissionSplits == 0 || rep.Unrolled == 0 {
		t.Fatalf("report: %s", rep)
	}
	assertSameBehaviour(t, orig, x)
	if !strings.Contains(rep.String(), "fission=") {
		t.Fatalf("report string: %s", rep)
	}
}

func TestLabelLoops(t *testing.T) {
	prog := compile(t, fissionSrc, "f", ir.MatrixArg(4, 4))
	LabelLoops(prog)
	labels := map[string]bool{}
	ir.WalkStmts(prog.Entry.Body, func(s ir.Stmt) bool {
		if f, ok := s.(*ir.For); ok {
			if f.Label == "" {
				t.Fatal("unlabeled loop")
			}
			if labels[f.Label] {
				t.Fatalf("duplicate label %s", f.Label)
			}
			labels[f.Label] = true
		}
		return true
	})
	if len(labels) < 4 {
		t.Fatalf("labels: %d", len(labels))
	}
}

// Property-style sweep: every pipeline configuration preserves semantics
// on a stencil-ish kernel with control flow.
func TestPipelineConfigSweepPreservesSemantics(t *testing.T) {
	src := `
function [out, stat] = f(img)
  h = size(img, 1)
  w = size(img, 2)
  out = zeros(h, w)
  stat = 0
  for i = 1:h
    for j = 1:w
      v = img(i, j)
      if v > 0 then
        out(i, j) = sqrt(v) + i
      else
        out(i, j) = -v * 2
      end
    end
  end
  for i = 1:h
    for j = 1:w
      stat = stat + out(i, j)
    end
  end
endfunction`
	configs := []Options{
		{Fold: true},
		{Fission: true},
		{Fold: true, Fission: true},
		{UnrollFactor: 3},
		{TileI: 3, TileJ: 3},
		{Fold: true, Fission: true, UnrollFactor: 2, TileI: 2, TileJ: 4},
		{Fusion: true},
		{Fold: true, Fission: true, Fusion: true},
	}
	for ci, cfg := range configs {
		orig := compile(t, src, "f", ir.MatrixArg(7, 9))
		x := cloneProg(orig)
		Apply(x, cfg)
		t.Run(strings.ReplaceAll(strings.TrimSpace(rcfg(cfg)), " ", "_"), func(t *testing.T) {
			assertSameBehaviour(t, orig, x, int64(ci+1), int64(ci+100))
		})
	}
}

func rcfg(o Options) string {
	s := ""
	if o.Fold {
		s += " fold"
	}
	if o.Fission {
		s += " fission"
	}
	if o.Fusion {
		s += " fusion"
	}
	if o.UnrollFactor > 1 {
		s += " unroll"
	}
	if o.TileI > 0 {
		s += " tile"
	}
	if s == "" {
		s = "none"
	}
	return s
}
