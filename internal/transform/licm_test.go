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
