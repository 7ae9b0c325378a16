package wcet

import "argo/internal/ir"

// Engine is one code-level WCET analysis back-end. Every engine must be
// sound with respect to the metered IR interpreter — for any execution
// of the region, the metered cycle count is <= Report.Cycles — and must
// produce the same access-count bounds (they feed the system-level
// interference analysis, which has to see one consistent traffic model
// regardless of which engine computed the cycle bound).
//
// Engines are identified by Name: the bound memo (AnalyzeMemo/AnalyzeFP)
// and the pass-cache fingerprints downstream of annotation key on it, so
// no cache tier can serve one engine's bound as another's.
type Engine interface {
	// Name is the stable identity of the engine ("ipet", "mc").
	Name() string
	// Analyze computes the region's WCET report under the cost model.
	Analyze(stmts []ir.Stmt, m CostModel) Report
}

// ipetEngine is the classic tree/IPET engine: the structural bound
// (which the ILP-based IPET solver provably reproduces on structured
// IR — see TestIPETMatchesStructural) plus worst-case access counts.
type ipetEngine struct{}

func (ipetEngine) Name() string { return "ipet" }

func (ipetEngine) Analyze(stmts []ir.Stmt, m CostModel) Report { return Analyze(stmts, m) }

// IPETEngine is the default engine: the structural/IPET analysis that
// every release before the pluggable-engine refactor used.
var IPETEngine Engine = ipetEngine{}

// Selection is a resolved engine choice for one compilation: the
// primary engine supplies every bound used downstream, and Check (set
// only by the "both" selector) is re-run on every region so a
// cross-check violation (Check.Cycles > Primary.Cycles) fails the
// compilation loudly instead of silently shipping an unsound or
// untight bound.
type Selection struct {
	Primary Engine
	Check   Engine
	// Spec is the canonical selector string ("ipet", "mc", "both");
	// pass fingerprints downstream of annotation incorporate it.
	Spec string
}

// DefaultSelection is the IPET engine with no cross-check — the
// behavior of every release before engines became pluggable.
func DefaultSelection() Selection { return Selection{Primary: IPETEngine, Spec: "ipet"} }
