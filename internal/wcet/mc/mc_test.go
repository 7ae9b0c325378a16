package mc_test

import (
	"expvar"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/htg"
	"argo/internal/ir"
	"argo/internal/scil"
	"argo/internal/usecases"
	"argo/internal/wcet"
	"argo/internal/wcet/mc"
)

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

// TestExactLEIPET is the engine-ordering property over the full golden
// matrix: for every task region of every use case compiled for every
// built-in platform, every loop-body region below it (taskRegions), and
// every distinct core cost model, the exact engine's bound never exceeds
// the IPET engine's, and both engines report identical access counts
// (the interference analysis must see one traffic model).
func TestExactLEIPET(t *testing.T) {
	regions := 0
	for _, u := range usecases.All() {
		for _, pname := range adl.BuiltinNames() {
			plat := adl.Builtin(pname)
			art, err := core.CompileSource(u.Source, core.DefaultOptions(u.Entry, u.Args, plat))
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", u.Name, pname, err)
			}
			models := make([]wcet.CostModel, plat.NumCores())
			for i := range models {
				models[i] = wcet.ModelFor(plat, i)
			}
			for i, stmts := range taskRegions(art.Graph) {
				for _, m := range models {
					ipet := wcet.Analyze(stmts, m)
					exact := mc.Default.Analyze(stmts, m)
					if exact.Cycles > ipet.Cycles {
						t.Fatalf("%s/%s region %d: exact %d > ipet %d", u.Name, pname, i, exact.Cycles, ipet.Cycles)
					}
					if exact.SharedAccesses != ipet.SharedAccesses || exact.SPMAccesses != ipet.SPMAccesses {
						t.Fatalf("%s/%s region %d: access counts diverge: exact %+v ipet %+v", u.Name, pname, i, exact, ipet)
					}
				}
				regions++
			}
		}
	}
	t.Logf("%d regions", regions)
}

// taskRegions returns the task graph's regions and, below each loop task,
// the regions a hierarchy level of its body would hold: a loop whose body
// has more than one statement yields the body's maximal non-loop runs
// and its loops, recursively down to the third level. These are the
// regions the task graph's lower levels held when it built them.
func taskRegions(g *htg.Graph) [][]ir.Stmt {
	var out [][]ir.Stmt
	for _, n := range g.Nodes {
		out = append(out, n.Stmts)
		if n.Kind == htg.KindLoop {
			out = levelRegions(out, n.Stmts[0].(*ir.For).Body, 1)
		}
	}
	return out
}

// levelRegions appends the regions of the hierarchy level at depth built
// from one loop body, and the levels below its loops.
func levelRegions(out [][]ir.Stmt, body []ir.Stmt, depth int) [][]ir.Stmt {
	if depth >= 3 || len(body) <= 1 {
		return out
	}
	var run []ir.Stmt
	for _, s := range body {
		loop, ok := s.(*ir.For)
		if !ok {
			run = append(run, s)
			continue
		}
		if len(run) > 0 {
			out = append(out, run)
			run = nil
		}
		out = append(out, []ir.Stmt{s})
		out = levelRegions(out, loop.Body, depth+1)
	}
	if len(run) > 0 {
		out = append(out, run)
	}
	return out
}

// TestExactStrictlyTighter pins a fixture where the exact engine is
// strictly below the IPET bound, and documents why the gap exists: the
// branch condition is region-constant (x = 0 makes x > 0 provably
// false), so the exact engine never explores the expensive then-branch,
// while the structural/IPET analysis — which knows nothing about values
// — must take the maximum over both branches.
func TestExactStrictlyTighter(t *testing.T) {
	prog := lower(t, `function r = f(a)
  x = 0
  if x > 0 then
    r = 0
    for i = 1:50
      r = r + a * i
    end
  else
    r = 1
  end
endfunction`, "f", ir.ScalarArg())
	m := wcet.CostModel{OpCycles: 1, SPMLatency: 2, SharedLatency: 18}
	ipet := wcet.Analyze(prog.Entry.Body, m)
	exact := mc.Default.Analyze(prog.Entry.Body, m)
	if exact.Cycles >= ipet.Cycles {
		t.Fatalf("exact %d must be strictly below ipet %d on a dead expensive branch", exact.Cycles, ipet.Cycles)
	}

	// The same region with the branch flipped live is exactly the
	// structural bound: nothing to tighten.
	progLive := lower(t, `function r = f(a)
  x = 1
  if x > 0 then
    r = 0
    for i = 1:50
      r = r + a * i
    end
  else
    r = 1
  end
endfunction`, "f", ir.ScalarArg())
	ipetLive := wcet.Analyze(progLive.Entry.Body, m)
	exactLive := mc.Default.Analyze(progLive.Entry.Body, m)
	if exactLive.Cycles != ipetLive.Cycles {
		t.Fatalf("live branch: exact %d != ipet %d (then-branch is the worst case in both)", exactLive.Cycles, ipetLive.Cycles)
	}
}

// TestExactEarlyWhileExit: a while whose condition goes provably false
// after a computable number of iterations is bounded by the actual
// iteration count, not the annotated @bound.
func TestExactEarlyWhileExit(t *testing.T) {
	prog := lower(t, `function r = f(a)
  r = 16
  //@bound 1000
  while r > 1
    r = r / 2
  end
endfunction`, "f", ir.ScalarArg())
	m := wcet.CostModel{OpCycles: 1, SPMLatency: 2, SharedLatency: 18}
	ipet := wcet.Analyze(prog.Entry.Body, m)
	exact := mc.Default.Analyze(prog.Entry.Body, m)
	if exact.Cycles >= ipet.Cycles {
		t.Fatalf("exact %d must beat the @bound-1000 structural bound %d on a 4-iteration loop", exact.Cycles, ipet.Cycles)
	}
}

func expvarInt(t *testing.T, name string) int64 {
	t.Helper()
	v, ok := expvar.Get(name).(*expvar.Int)
	if !ok {
		t.Fatalf("expvar %s not registered", name)
	}
	return v.Value()
}

// TestFallbackOnBlowup: with state fuel too small for an unknown branch
// split, the engine falls back to the structural bound bit-identically
// (so a fallback can never mask a cross-check violation) and counts the
// fallback in argo_wcet_mc_fallbacks.
func TestFallbackOnBlowup(t *testing.T) {
	// n is timing-relevant (it bounds the while) and diverges across the
	// unknown branch, so the split cannot re-merge: one state of fuel
	// forces the whole-region fallback.
	prog := lower(t, `function r = f(a)
  if a > 0 then
    n = 5
  else
    n = 3
  end
  r = 0
  //@bound 8
  while r < n
    r = r + 1
  end
endfunction`, "f", ir.ScalarArg())
	m := wcet.CostModel{OpCycles: 1, SPMLatency: 2, SharedLatency: 18}
	tiny := mc.New(mc.Options{MaxStates: 1})
	before := expvarInt(t, "argo_wcet_mc_fallbacks")
	got := tiny.Analyze(prog.Entry.Body, m)
	after := expvarInt(t, "argo_wcet_mc_fallbacks")
	if want := wcet.Analyze(prog.Entry.Body, m); got != want {
		t.Fatalf("fallback report %+v must be bit-identical to the structural report %+v", got, want)
	}
	if after != before+1 {
		t.Fatalf("fallback counter: %d -> %d, want one increment", before, after)
	}

	// With real fuel the same region completes exactly and merges the
	// branch states.
	full := mc.Default.Analyze(prog.Entry.Body, m)
	if full.Cycles > wcet.Analyze(prog.Entry.Body, m).Cycles {
		t.Fatalf("exact bound %d exceeds structural", full.Cycles)
	}
	if expvarInt(t, "argo_wcet_mc_analyses") == 0 {
		t.Fatal("argo_wcet_mc_analyses not counting")
	}
	if expvarInt(t, "argo_wcet_mc_states") == 0 {
		t.Fatal("argo_wcet_mc_states not counting")
	}
}
