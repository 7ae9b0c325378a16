package wcet

import (
	"fmt"
	"math"

	"argo/internal/ir"
	"argo/internal/lp"
)

// cfg is the control-flow graph built for IPET. Nodes carry costs; edges
// carry the ILP execution-count variables.
type cfg struct {
	costs []int64 // node id -> cost of one execution
	from  []int   // edge id -> source node
	to    []int   // edge id -> target node
	// loop constraints: count(iterEdge) <= k * count(entryEdge)
	loops []loopCons
	entry int
	exit  int
}

type loopCons struct {
	iterEdge, entryEdge int
	k                   int64
}

func (g *cfg) newNode(cost int64) int {
	g.costs = append(g.costs, cost)
	return len(g.costs) - 1
}

func (g *cfg) newEdge(from, to int) int {
	g.from = append(g.from, from)
	g.to = append(g.to, to)
	return len(g.from) - 1
}

type loopCtx struct {
	breakNode    int
	continueNode int
}

// buildCFG converts a structured region into a CFG. The construction
// mirrors the interpreter's cost charging exactly: for-loops charge
// their header once and a 2-op overhead per iteration; while-loops and
// ifs charge cond+1 per check.
func buildCFG(stmts []ir.Stmt, m CostModel) *cfg {
	g := &cfg{}
	g.entry = g.newNode(0)
	end := buildBlock(g, stmts, g.entry, m, nil)
	g.exit = g.newNode(0)
	g.newEdge(end, g.exit)
	return g
}

// buildBlock threads stmts from node cur and returns the block's exit node.
func buildBlock(g *cfg, stmts []ir.Stmt, cur int, m CostModel, lc *loopCtx) int {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.AssignScalar, *ir.Store:
			n := g.newNode(m.stmtSelfCost(s))
			g.newEdge(cur, n)
			cur = n
		case *ir.Break:
			g.newEdge(cur, lc.breakNode)
			cur = g.newNode(0) // unreachable continuation
		case *ir.Continue:
			g.newEdge(cur, lc.continueNode)
			cur = g.newNode(0)
		case *ir.For:
			hdr := g.newNode(m.stmtSelfCost(st))
			pre := g.newEdge(cur, hdr)
			check := g.newNode(0)
			g.newEdge(hdr, check)
			iter := g.newNode(m.loopIterOverhead())
			iterEdge := g.newEdge(check, iter)
			exit := g.newNode(0)
			g.newEdge(check, exit)
			inner := &loopCtx{breakNode: exit, continueNode: check}
			bodyEnd := buildBlock(g, st.Body, iter, m, inner)
			g.newEdge(bodyEnd, check)
			g.loops = append(g.loops, loopCons{iterEdge: iterEdge, entryEdge: pre, k: int64(st.Trip)})
			cur = exit
		case *ir.While:
			check := g.newNode(m.stmtSelfCost(st))
			pre := g.newEdge(cur, check)
			iter := g.newNode(0)
			iterEdge := g.newEdge(check, iter)
			exit := g.newNode(0)
			g.newEdge(check, exit)
			inner := &loopCtx{breakNode: exit, continueNode: check}
			bodyEnd := buildBlock(g, st.Body, iter, m, inner)
			g.newEdge(bodyEnd, check)
			g.loops = append(g.loops, loopCons{iterEdge: iterEdge, entryEdge: pre, k: int64(st.Bound)})
			cur = exit
		case *ir.If:
			cond := g.newNode(m.stmtSelfCost(st))
			g.newEdge(cur, cond)
			thenEntry := g.newNode(0)
			g.newEdge(cond, thenEntry)
			elseEntry := g.newNode(0)
			g.newEdge(cond, elseEntry)
			merge := g.newNode(0)
			thenEnd := buildBlock(g, st.Then, thenEntry, m, lc)
			g.newEdge(thenEnd, merge)
			elseEnd := buildBlock(g, st.Else, elseEntry, m, lc)
			g.newEdge(elseEnd, merge)
			cur = merge
		}
	}
	return cur
}

// IPET computes the code-level WCET bound of a region via implicit path
// enumeration: maximize total cost over edge execution counts subject to
// flow conservation and loop-bound constraints. For the structured CFGs
// produced here the LP relaxation is integral; integrality is verified
// and branch-and-bound is used as a fallback.
func IPET(stmts []ir.Stmt, m CostModel) (int64, error) {
	prob := ipetProblem(stmts, m)
	sol := lp.Solve(prob)
	switch sol.Status {
	case lp.Optimal:
	case lp.Unbounded:
		return 0, fmt.Errorf("wcet: IPET problem unbounded (missing loop bound?)")
	default:
		return 0, fmt.Errorf("wcet: IPET problem infeasible")
	}
	// Verify integrality; fall back to branch-and-bound if violated.
	for _, x := range sol.X {
		if math.Abs(x-math.Round(x)) > 1e-6 {
			prob.Integer = make([]bool, len(prob.Obj))
			for i := range prob.Integer {
				prob.Integer[i] = true
			}
			sol = lp.SolveMIP(prob)
			if sol.Status != lp.Optimal {
				return 0, fmt.Errorf("wcet: IPET MIP failed: %v", sol.Status)
			}
			break
		}
	}
	return int64(math.Round(sol.Obj)), nil
}

// ipetProblem states the IPET problem of a region: one variable per
// CFG edge, its execution count.
func ipetProblem(stmts []ir.Stmt, m CostModel) *lp.Problem {
	g := buildCFG(stmts, m)
	nEdges := len(g.from)
	// Objective: each edge pays the cost of the node it enters.
	prob := &lp.Problem{Obj: make([]float64, nEdges)}
	for e := range prob.Obj {
		prob.Obj[e] = float64(g.costs[g.to[e]])
	}
	// Flow conservation for every node except entry and exit:
	// sum(in) - sum(out) == 0. Entry: out-flow == 1. Exit: in-flow == 1.
	inEdges := make([][]int, len(g.costs))
	outEdges := make([][]int, len(g.costs))
	for e := 0; e < nEdges; e++ {
		inEdges[g.to[e]] = append(inEdges[g.to[e]], e)
		outEdges[g.from[e]] = append(outEdges[g.from[e]], e)
	}
	for n := range g.costs {
		coef := make([]float64, nEdges)
		switch n {
		case g.entry:
			for _, e := range outEdges[n] {
				coef[e] = 1
			}
			prob.AddEQ(coef, 1)
		case g.exit:
			for _, e := range inEdges[n] {
				coef[e] = 1
			}
			prob.AddEQ(coef, 1)
		default:
			for _, e := range inEdges[n] {
				coef[e] += 1
			}
			for _, e := range outEdges[n] {
				coef[e] -= 1
			}
			prob.AddEQ(coef, 0)
		}
	}
	for _, lcn := range g.loops {
		coef := make([]float64, nEdges)
		coef[lcn.iterEdge] = 1
		coef[lcn.entryEdge] = -float64(lcn.k)
		prob.AddLE(coef, 0)
	}
	return prob
}
