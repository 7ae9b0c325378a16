package vm_test

import (
	"testing"

	"argo/internal/ir"
	"argo/internal/ir/vm"
)

// superSrc exercises all four fusion shapes — Add/Sub with the Mul on
// either side — plus matrix operands (loads inside the fused operands)
// and values where an FMA contraction would change the result bits if
// the dispatch cases allowed one.
const superSrc = `
function r = f(x, y, M)
  r = 0
  acc = 0
  for i = 1:8
    acc = acc + M(i) * x
    acc = acc - M(i) * y
    acc = x * y + acc
    acc = x * acc - y
  end
  r = acc + 0.1 * x
  r = r - y * 0.3
endfunction`

func superProg(t *testing.T) *ir.Program {
	t.Helper()
	return lower(t, superSrc, "f", ir.ScalarArg(), ir.ScalarArg(), ir.MatrixArg(8, 1))
}

func superInputs() [][]float64 {
	m := make([]float64, 8)
	for i := range m {
		// Values chosen so x*y rounds: an FMA (single rounding) would
		// produce different bits than mul-then-add.
		m[i] = 1.0/3.0 + float64(i)*0.7
	}
	return [][]float64{{0.1}, {1.0 / 3.0}, m}
}

// superSites is the number of fused sites in superSrc.
const superSites = 6

// TestSuperinstructionDifferential pins the bit-identity contract of
// the fusions: the VM with fused multiply-accumulate opcodes matches
// the tree walker exactly (results, meter sequence, errors), each fused
// site is counted once although both streams fuse it, and dispatches
// are counted.
func TestSuperinstructionDifferential(t *testing.T) {
	f0, d0 := vm.SuperCounters()
	assertSame(t, superProg(t), superInputs())
	f1, d1 := vm.SuperCounters()
	if f1-f0 != superSites {
		t.Errorf("argo_superinst_fused grew by %d, want %d", f1-f0, superSites)
	}
	if d1 <= d0 {
		t.Errorf("argo_superinst_dispatched did not grow: %d -> %d", d0, d1)
	}
}
