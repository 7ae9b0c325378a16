// Package wcet implements ARGO's code-level WCET analysis (paper §II-D):
// the isolated worst-case execution time of a code fragment on one core,
// ignoring shared-resource contention (which the system-level analysis in
// internal/syswcet adds on top — the platform is fully timing
// compositional, §III-B).
//
// Two independent analyses are provided and cross-checked:
//
//   - Structural: a bottom-up traversal of the structured IR (loop bounds
//     multiply, branches take the maximum), in the spirit of tree-based
//     WCET calculation.
//   - IPET: the implicit path enumeration technique — the IR is converted
//     to a control-flow graph whose edge execution counts are the
//     variables of an integer linear program solved with internal/lp,
//     as done by industrial analyzers such as aiT.
//
// Both analyses share the exact cost model used by the IR interpreter's
// meter, so "simulated execution time <= WCET bound" is a mechanically
// checkable property (exercised by experiment E2).
package wcet

import (
	"argo/internal/adl"
	"argo/internal/ir"
)

// CostModel holds the per-core architecture cost parameters.
type CostModel struct {
	// OpCycles is cycles per abstract ALU-op unit.
	OpCycles int
	// SPMLatency is the per-element scratchpad access latency.
	SPMLatency int
	// SharedLatency is the per-element shared-memory access charge
	// without contention (adl.SharedAccessCharge: the isolated latency,
	// or the interconnect's hold per grant when that is longer;
	// contention is system-level).
	SharedLatency int
}

// ModelFor extracts the cost model of one core from a platform.
func ModelFor(p *adl.Platform, coreID int) CostModel {
	c := p.Cores[coreID]
	shared := p.SharedAccessCharge(coreID)
	spmLat := c.SPM.LatencyCycles
	if c.SPM.SizeBytes == 0 {
		spmLat = shared // no SPM: everything is shared
	}
	return CostModel{
		OpCycles:      c.OpCycles,
		SPMLatency:    spmLat,
		SharedLatency: shared,
	}
}

// accessLatency returns the access latency for one element of v.
func (m CostModel) accessLatency(v *ir.Var) int64 {
	if v.Storage == ir.StorageSPM {
		return int64(m.SPMLatency)
	}
	return int64(m.SharedLatency)
}

// exprCost is the full cost of evaluating e once: ALU ops plus memory
// loads.
func (m CostModel) exprCost(e ir.Expr) int64 {
	cost := int64(ir.ExprOpUnits(e)) * int64(m.OpCycles)
	reads := map[*ir.Var]int{}
	ir.ExprReads(e, reads)
	for v, n := range reads {
		cost += int64(n) * m.accessLatency(v)
	}
	return cost
}

// stmtSelfCost is the cost of one execution of the statement's own work,
// excluding nested statements and loop-iteration overheads. It mirrors
// exactly what the IR interpreter's meter charges.
func (m CostModel) stmtSelfCost(s ir.Stmt) int64 {
	switch st := s.(type) {
	case *ir.AssignScalar:
		return m.exprCost(st.Src) + int64(m.OpCycles)
	case *ir.Store:
		c := int64(m.OpCycles) + m.exprCost(st.Src)
		for _, ix := range st.Idx {
			c += m.exprCost(ix)
		}
		c += m.accessLatency(st.Dst)
		return c
	case *ir.For:
		// Header evaluation (once).
		return m.exprCost(st.Lo) + m.exprCost(st.Step) + m.exprCost(st.Hi)
	case *ir.While:
		// One condition check (charged per check by the caller).
		return m.exprCost(st.Cond) + int64(m.OpCycles)
	case *ir.If:
		return m.exprCost(st.Cond) + int64(m.OpCycles)
	case *ir.Break, *ir.Continue:
		return 0
	}
	return 0
}

// loopIterOverhead is the per-iteration increment+branch cost of a For.
func (m CostModel) loopIterOverhead() int64 { return 2 * int64(m.OpCycles) }

// StmtSelfCost exposes the per-execution self cost of one statement
// (assignment/store: the full metered cost; loop/branch: one header or
// condition evaluation) for engines outside this package that charge
// statements individually, such as internal/wcet/mc.
func (m CostModel) StmtSelfCost(s ir.Stmt) int64 { return m.stmtSelfCost(s) }

// LoopIterOverhead exposes the per-iteration increment+branch charge of
// a counted loop.
func (m CostModel) LoopIterOverhead() int64 { return m.loopIterOverhead() }

// Structural computes the code-level WCET bound of a statement region by
// bottom-up structural analysis.
func Structural(stmts []ir.Stmt, m CostModel) int64 {
	var total int64
	for _, s := range stmts {
		total += structuralStmt(s, m)
	}
	return total
}

func structuralStmt(s ir.Stmt, m CostModel) int64 {
	switch st := s.(type) {
	case *ir.AssignScalar, *ir.Store, *ir.Break, *ir.Continue:
		return m.stmtSelfCost(s)
	case *ir.For:
		body := Structural(st.Body, m)
		return m.stmtSelfCost(s) + int64(st.Trip)*(m.loopIterOverhead()+body)
	case *ir.While:
		check := m.stmtSelfCost(s)
		body := Structural(st.Body, m)
		// Bound iterations, each preceded by a check, plus the final
		// failing check.
		return int64(st.Bound)*(check+body) + check
	case *ir.If:
		t := Structural(st.Then, m)
		e := Structural(st.Else, m)
		if e > t {
			t = e
		}
		return m.stmtSelfCost(s) + t
	}
	return 0
}

// Report is a code-level WCET result for one region on one core.
type Report struct {
	// Cycles is the isolated WCET bound.
	Cycles int64
	// SharedAccesses bounds the number of shared-memory element accesses
	// (input to the system-level interference analysis).
	SharedAccesses int64
	// SPMAccesses bounds scratchpad accesses.
	SPMAccesses int64
}

// Analyze runs the structural analysis and access counting for a region.
func Analyze(stmts []ir.Stmt, m CostModel) Report {
	counts := ir.CountAccesses(stmts)
	rep := Report{Cycles: Structural(stmts, m)}
	for v, n := range counts.Reads {
		if v.Storage == ir.StorageSPM {
			rep.SPMAccesses += n
		} else {
			rep.SharedAccesses += n
		}
	}
	for v, n := range counts.Writes {
		if v.Storage == ir.StorageSPM {
			rep.SPMAccesses += n
		} else {
			rep.SharedAccesses += n
		}
	}
	return rep
}

// CycleMeter converts an actual IR execution into cycles and access
// counts using the same cost model as the static analyses; it implements
// ir.Meter.
type CycleMeter struct {
	Model          CostModel
	Cycles         int64
	SharedAccesses int64
	SPMAccesses    int64
}

// Ops implements ir.Meter.
func (cm *CycleMeter) Ops(n int) { cm.Cycles += int64(n) * int64(cm.Model.OpCycles) }

// Read implements ir.Meter.
func (cm *CycleMeter) Read(v *ir.Var) {
	cm.Cycles += cm.Model.accessLatency(v)
	if v.Storage == ir.StorageSPM {
		cm.SPMAccesses++
	} else {
		cm.SharedAccesses++
	}
}

// Write implements ir.Meter.
func (cm *CycleMeter) Write(v *ir.Var) {
	cm.Cycles += cm.Model.accessLatency(v)
	if v.Storage == ir.StorageSPM {
		cm.SPMAccesses++
	} else {
		cm.SharedAccesses++
	}
}
