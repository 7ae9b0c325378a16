package vm

import (
	"math"
	"testing"

	"argo/internal/ir"
)

// TestCompareBranchMatchesFoldBin pins each compare-and-branch opcode to
// the one operator table: opJn<cmp> jumps exactly when ir.FoldBin(cmp,
// x, y) is 0, for every pair of NaN, ±Inf, ±1 and ±0. The dispatch loop
// spells the comparisons inline for speed; this keeps them checked
// against their single definition, burn twins included.
func TestCompareBranchMatchesFoldBin(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1)}
	for cmp := ir.OpEq; cmp <= ir.OpGe; cmp++ {
		for _, twin := range []op{0, burnDelta} {
			jn := opJnEq + op(cmp-ir.OpEq) + twin
			// regs: x, y, and the landing marker; consts[0] marks the
			// fall-through path, consts[1] the jump.
			code := &Code{
				ins: []instr{
					{op: jn, a: 3, b: 0, c: 1},
					{op: opConst, a: 2, b: 0},
					{op: opHalt},
					{op: opConst, a: 2, b: 1},
					{op: opHalt},
				},
				consts: []float64{1, 2},
			}
			for _, x := range vals {
				for _, y := range vals {
					m := &Machine{prog: &Program{}, regs: []float64{x, y, 0}}
					fuel, err := m.run(code, 10)
					if err != nil {
						t.Fatalf("%v(%v, %v): %v", cmp, x, y, err)
					}
					wantFuel := 10
					if twin != 0 {
						wantFuel = 9
					}
					if fuel != wantFuel {
						t.Fatalf("%v(%v, %v) twin=%v: fuel %d, want %d", cmp, x, y, twin != 0, fuel, wantFuel)
					}
					jumped := m.regs[2] == 2
					if want := ir.FoldBin(cmp, x, y) == 0; jumped != want {
						t.Errorf("%v %v %v twin=%v: jumped=%v, FoldBin=%v", x, cmp, y, twin != 0, jumped, ir.FoldBin(cmp, x, y))
					}
				}
			}
		}
	}
}
