package wcet

import (
	"testing"

	"argo/internal/ir"
)

// offsetEngine is a fake second engine whose bounds deliberately differ
// from the IPET engine's, so cache-soundness violations are observable.
type offsetEngine struct{ name string }

func (e offsetEngine) Name() string { return e.name }

func (e offsetEngine) Analyze(stmts []ir.Stmt, m CostModel) Report {
	rep := Analyze(stmts, m)
	rep.Cycles += 1000
	return rep
}

// TestEngineCacheKeying is the regression test for the latent
// cache-soundness gap: flipping engines over the same (region, model)
// must produce distinct cache keys — a fresh miss per engine, and never
// one engine's bound served as another's.
func TestEngineCacheKeying(t *testing.T) {
	prog := compile(t, `function r = f(a)
  r = 0
  for i = 1:8
    r = r + a * i
  end
endfunction`, "f", ir.ScalarArg())
	m := defaultModel()
	other := offsetEngine{name: "offset-test"}

	ResetCache()
	_, mi0 := CacheCounters()

	ipetRep := AnalyzeMemo(IPETEngine, prog.Entry.Body, m)
	_, mi1 := CacheCounters()
	if mi1 != mi0+1 {
		t.Fatalf("first ipet analysis: misses %d -> %d, want one new miss", mi0, mi1)
	}

	otherRep := AnalyzeMemo(other, prog.Entry.Body, m)
	_, mi2 := CacheCounters()
	if mi2 != mi1+1 {
		t.Fatalf("flipping engines must miss: misses %d -> %d", mi1, mi2)
	}
	if otherRep.Cycles == ipetRep.Cycles {
		t.Fatalf("engines must not share bounds: both report %d cycles", ipetRep.Cycles)
	}
	if want := ipetRep.Cycles + 1000; otherRep.Cycles != want {
		t.Fatalf("offset engine bound = %d, want %d (cache served a foreign bound)", otherRep.Cycles, want)
	}

	// Re-running each engine hits its own entry and returns its own bound.
	h1, _ := CacheCounters()
	if got := AnalyzeMemo(IPETEngine, prog.Entry.Body, m); got != ipetRep {
		t.Fatalf("cached ipet report changed: %+v vs %+v", got, ipetRep)
	}
	if got := AnalyzeMemo(other, prog.Entry.Body, m); got != otherRep {
		t.Fatalf("cached offset report changed: %+v vs %+v", got, otherRep)
	}
	h2, mi3 := CacheCounters()
	if h2 != h1+2 || mi3 != mi2 {
		t.Fatalf("re-runs: hits %d -> %d (want +2), misses %d -> %d (want unchanged)", h1, h2, mi2, mi3)
	}
}
