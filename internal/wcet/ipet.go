package wcet

import (
	"fmt"
	"math"
	"sync"

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

// buildCFG converts a structured region into a CFG, reusing g's backing
// slices. The construction mirrors the interpreter's cost charging
// exactly: for-loops charge their header once and a 2-op overhead per
// iteration; while-loops and ifs charge cond+1 per check.
func buildCFG(g *cfg, stmts []ir.Stmt, m CostModel) {
	g.costs = g.costs[:0]
	g.from = g.from[:0]
	g.to = g.to[:0]
	g.loops = g.loops[:0]
	g.entry = g.newNode(0)
	end := buildBlock(g, stmts, g.entry, m, nil)
	g.exit = g.newNode(0)
	g.newEdge(end, g.exit)
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

// ipetState is the reusable memory of one IPET solve: the CFG, the edge
// incidence lists, one flat slab backing all constraint coefficient
// rows, and the LP workspace. Pooled so repeated IPET calls allocate
// nothing in the steady state.
type ipetState struct {
	g        cfg
	inEdges  [][]int
	outEdges [][]int
	slab     []float64
	cons     []lp.Constraint
	obj      []float64
	integer  []bool
	ws       *lp.Workspace
}

var ipetPool = sync.Pool{New: func() any { return &ipetState{ws: lp.NewWorkspace()} }}

// incidence returns s[:n] with every per-node list reset to length 0.
func incidence(s [][]int, n int) [][]int {
	if cap(s) < n {
		s = make([][]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// IPET computes the code-level WCET bound of a region via implicit path
// enumeration: maximize total cost over edge execution counts subject to
// flow conservation and loop-bound constraints. For the structured CFGs
// produced here the LP relaxation is integral; integrality is verified
// and branch-and-bound is used as a fallback. Solver memory is drawn
// from a process-wide pool.
func IPET(stmts []ir.Stmt, m CostModel) (int64, error) {
	st := ipetPool.Get().(*ipetState)
	defer ipetPool.Put(st)
	return st.run(stmts, m)
}

func (st *ipetState) run(stmts []ir.Stmt, m CostModel) (int64, error) {
	g := &st.g
	buildCFG(g, stmts, m)
	nEdges := len(g.from)
	if nEdges == 0 {
		return 0, nil
	}
	if cap(st.obj) < nEdges {
		st.obj = make([]float64, nEdges)
	}
	obj := st.obj[:nEdges]
	// Objective: each edge pays the cost of the node it enters.
	for e := 0; e < nEdges; e++ {
		obj[e] = float64(g.costs[g.to[e]])
	}
	// Flow conservation for every node except entry and exit:
	// sum(in) - sum(out) == 0. Entry: out-flow == 1. Exit: in-flow == 1.
	st.inEdges = incidence(st.inEdges, len(g.costs))
	st.outEdges = incidence(st.outEdges, len(g.costs))
	inEdges, outEdges := st.inEdges, st.outEdges
	for e := 0; e < nEdges; e++ {
		inEdges[g.to[e]] = append(inEdges[g.to[e]], e)
		outEdges[g.from[e]] = append(outEdges[g.from[e]], e)
	}
	// All coefficient rows share one zeroed flat slab.
	rows := len(g.costs) + len(g.loops)
	if cap(st.slab) < rows*nEdges {
		st.slab = make([]float64, rows*nEdges)
	}
	slab := st.slab[:rows*nEdges]
	clear(slab)
	st.cons = st.cons[:0]
	prob := &lp.Problem{Obj: obj, Cons: st.cons}
	nextRow := 0
	newCoef := func() []float64 {
		c := slab[nextRow*nEdges : (nextRow+1)*nEdges]
		nextRow++
		return c
	}
	for n := range g.costs {
		coef := newCoef()
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
		coef := newCoef()
		coef[lcn.iterEdge] = 1
		coef[lcn.entryEdge] = -float64(lcn.k)
		prob.AddLE(coef, 0)
	}
	st.cons = prob.Cons[:0] // keep the (possibly grown) backing array
	sol := st.ws.Solve(prob)
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
			if cap(st.integer) < nEdges {
				st.integer = make([]bool, nEdges)
			}
			prob.Integer = st.integer[:nEdges]
			for i := range prob.Integer {
				prob.Integer[i] = true
			}
			sol = st.ws.SolveMIP(prob)
			if sol.Status != lp.Optimal {
				return 0, fmt.Errorf("wcet: IPET MIP failed: %v", sol.Status)
			}
			break
		}
	}
	return int64(math.Round(sol.Obj)), nil
}
