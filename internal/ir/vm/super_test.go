package vm_test

import (
	"math"
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

// TestSuperinstructionDifferential pins the bit-identity contract with
// the fusions on: the VM with fused multiply-accumulate opcodes matches
// the tree walker exactly (results, meter sequence, errors), fusions
// are actually emitted, and dispatches are counted.
func TestSuperinstructionDifferential(t *testing.T) {
	vm.SetSuperinstructions(true)
	t.Cleanup(func() { vm.SetSuperinstructions(true) })

	f0, d0 := vm.SuperCounters()
	assertSame(t, superProg(t), superInputs())
	f1, d1 := vm.SuperCounters()
	if f1 <= f0 {
		t.Errorf("argo_superinst_fused did not grow: %d -> %d", f0, f1)
	}
	if d1 <= d0 {
		t.Errorf("argo_superinst_dispatched did not grow: %d -> %d", d0, d1)
	}
}

// TestSuperinstructionOnOffIdentical pins the A-B lever: the same
// program compiled with fusions off produces bit-identical results to
// the fused build (and emits no superinstructions).
func TestSuperinstructionOnOffIdentical(t *testing.T) {
	t.Cleanup(func() { vm.SetSuperinstructions(true) })
	prog := superProg(t)
	in := superInputs()

	vm.SetSuperinstructions(true)
	on, errOn := vm.Run(prog, nil, in)

	vm.SetSuperinstructions(false)
	f0, _ := vm.SuperCounters()
	off, errOff := vm.Run(prog, nil, in)
	f1, _ := vm.SuperCounters()

	if errOn != nil || errOff != nil {
		t.Fatalf("run errors: on=%v off=%v", errOn, errOff)
	}
	if f1 != f0 {
		t.Errorf("fusions emitted with superinstructions off: %d -> %d", f0, f1)
	}
	for i := range on {
		for j := range on[i] {
			if math.Float64bits(on[i][j]) != math.Float64bits(off[i][j]) {
				t.Fatalf("result[%d][%d] differs: on=%v off=%v (FMA contraction?)", i, j, on[i][j], off[i][j])
			}
		}
	}
}

// TestTuneFromProfile pins the profile-guided loop: record a dispatch-
// pair profile with fusions off, tune the mask from it, and verify the
// retuned compile fuses (and still matches the unfused results).
func TestTuneFromProfile(t *testing.T) {
	t.Cleanup(func() { vm.SetSuperinstructions(true) })
	prog := superProg(t)
	in := superInputs()

	vm.SetSuperinstructions(false)
	cp, err := vm.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof := &vm.PairProfile{}
	m := vm.NewMachine(cp, nil)
	m.SetPairProfile(prof)
	if err := m.Init(in); err != nil {
		t.Fatal(err)
	}
	if err := m.ExecEntry(); err != nil {
		t.Fatal(err)
	}
	baseline := m.Results()
	if prof.Total() == 0 {
		t.Fatal("profile recorded nothing")
	}
	if tops := prof.TopPairs(5); len(tops) == 0 {
		t.Fatal("TopPairs empty on a non-empty profile")
	}

	mask := vm.TuneFromProfile(prof, 0)
	if mask&(vm.SuperMulAdd|vm.SuperAddMul) == 0 {
		t.Fatalf("mul->add pairs recorded but mask %#x lacks the Add fusions", mask)
	}
	if mask&(vm.SuperMulSub|vm.SuperSubMul) == 0 {
		t.Fatalf("mul->sub pairs recorded but mask %#x lacks the Sub fusions", mask)
	}
	if got := vm.SuperMask(); got != mask {
		t.Fatalf("SuperMask() = %#x, want installed %#x", got, mask)
	}

	_, d0 := vm.SuperCounters()
	tuned, err := vm.Run(prog, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	_, d1 := vm.SuperCounters()
	if d1 <= d0 {
		t.Error("tuned compile dispatched no superinstructions")
	}
	for i := range baseline {
		for j := range baseline[i] {
			if math.Float64bits(baseline[i][j]) != math.Float64bits(tuned[i][j]) {
				t.Fatalf("tuned result[%d][%d] differs: %v vs %v", i, j, baseline[i][j], tuned[i][j])
			}
		}
	}

	// A profile of an all-fused run has no raw mul->add pairs left; the
	// aggregate path (nil profile) must still work.
	vm.ResetGlobalProfile()
	vm.RecordProfile(prof)
	if got := vm.TuneFromProfile(nil, 0); got != mask {
		t.Fatalf("aggregate tune = %#x, want %#x", got, mask)
	}
}
