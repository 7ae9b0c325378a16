package wcet_test

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/ir"
	"argo/internal/lp"
	"argo/internal/scil"
	"argo/internal/wcet"
	"argo/pkg/argo"
)

// relaxationIntegral reports whether the LP relaxation of a region's
// IPET problem has an integral optimum, the premise that lets IPET skip
// branch-and-bound.
func relaxationIntegral(t *testing.T, stmts []ir.Stmt, m wcet.CostModel) bool {
	t.Helper()
	sol := lp.Solve(wcet.IPETProblem(stmts, m))
	if sol.Status != lp.Optimal {
		t.Fatalf("IPET relaxation: %v", sol.Status)
	}
	for _, x := range sol.X {
		if math.Abs(x-math.Round(x)) > 1e-6 {
			return false
		}
	}
	return true
}

// TestIPETRelaxationIntegral checks that the IPET relaxation is integral
// on every task region argowcet cross-checks (each use case on each
// built-in platform, under its core's cost model) and on the generated
// programs TestFuzzStructuralEqualsIPET compares, so lp.SolveMIP stays
// a fallback these inputs never reach.
func TestIPETRelaxationIntegral(t *testing.T) {
	for _, uc := range argo.UseCases() {
		for _, name := range argo.PlatformNames() {
			plat := argo.Platform(name)
			art, err := argo.CompileUseCase(uc, plat)
			if err != nil {
				t.Fatalf("%s on %s: %v", uc.Name, name, err)
			}
			for _, n := range art.Graph.Nodes {
				m := wcet.ModelFor(plat, art.Schedule.Placements[n.ID].Core)
				if !relaxationIntegral(t, n.Stmts, m) {
					t.Errorf("%s on %s: task %d (%s): fractional IPET relaxation", uc.Name, name, n.ID, n.Label)
				}
			}
		}
	}
	models := []wcet.CostModel{
		{OpCycles: 1, SPMLatency: 2, SharedLatency: 18},
		{OpCycles: 2, SPMLatency: 1, SharedLatency: 12},
	}
	cfg := scil.DefaultGenConfig()
	for seed := 0; seed < 40; seed++ {
		prog := scil.Generate(rand.New(rand.NewSource(int64(1000+seed))), cfg)
		irProg, err := ir.Lower(prog, "fuzz", []ir.ArgSpec{ir.MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for mi, m := range models {
			if !relaxationIntegral(t, irProg.Entry.Body, m) {
				t.Errorf("seed %d model %d: fractional IPET relaxation", seed, mi)
			}
		}
	}
}
