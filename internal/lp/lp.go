// Package lp implements a small, dependency-free linear-programming
// solver: a two-phase dense simplex with Bland's anti-cycling rule, plus
// branch-and-bound for mixed-integer problems.
//
// It is the substrate for the IPET (implicit path enumeration technique)
// formulation of code-level WCET analysis in internal/wcet, playing the
// role a commercial ILP solver plays for tools like aiT. Problems are
// stated in the natural form
//
//	maximize    c · x
//	subject to  A x (<= | = | >=) b ,  x >= 0
//
// with optional integrality restrictions per variable.
package lp

import (
	"fmt"
	"math"
)

// Relation is a constraint comparator.
type Relation int

// Constraint relations.
const (
	LE Relation = iota // <=
	GE                 // >=
	EQ                 // ==
)

// String returns the relation's symbol.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Constraint is one linear constraint: Coef · x  Rel  RHS.
type Constraint struct {
	Coef []float64
	Rel  Relation
	RHS  float64
}

// Problem is a maximization problem over n = len(Obj) variables, all
// implicitly >= 0.
type Problem struct {
	Obj     []float64
	Cons    []Constraint
	Integer []bool // optional; nil means fully continuous
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// AddLE appends coef·x <= rhs.
func (p *Problem) AddLE(coef []float64, rhs float64) {
	p.Cons = append(p.Cons, Constraint{Coef: coef, Rel: LE, RHS: rhs})
}

// AddGE appends coef·x >= rhs.
func (p *Problem) AddGE(coef []float64, rhs float64) {
	p.Cons = append(p.Cons, Constraint{Coef: coef, Rel: GE, RHS: rhs})
}

// AddEQ appends coef·x == rhs.
func (p *Problem) AddEQ(coef []float64, rhs float64) {
	p.Cons = append(p.Cons, Constraint{Coef: coef, Rel: EQ, RHS: rhs})
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "?"
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
}

const eps = 1e-9

// Solve solves the LP relaxation of p (ignoring Integer).
func Solve(p *Problem) Solution {
	t, err := newTableau(p)
	if err != nil {
		return Solution{Status: Infeasible}
	}
	return t.solve()
}

// SolveMIP solves p with its integrality restrictions by depth-first
// branch-and-bound on the LP relaxation: every node adds its branching
// bounds to the problem's constraints and is solved from scratch.
func SolveMIP(p *Problem) Solution {
	relax := Solve(p)
	if relax.Status != Optimal || p.Integer == nil {
		return relax
	}
	if idx := firstFractional(relax.X, p.Integer); idx < 0 {
		return relax
	}
	best := Solution{Status: Infeasible, Obj: math.Inf(-1)}
	// Depth-first with an explicit stack of extra bound constraints.
	type node struct{ extra []Constraint }
	stack := []node{{}}
	iters := 0
	for len(stack) > 0 {
		iters++
		if iters > maxBBNodes {
			break // bail out; best-so-far is still a valid incumbent
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sub := &Problem{Obj: p.Obj, Cons: append(append([]Constraint{}, p.Cons...), nd.extra...), Integer: p.Integer}
		sol := Solve(sub)
		if sol.Status != Optimal {
			continue
		}
		if sol.Obj <= best.Obj+eps {
			continue // bound: cannot beat incumbent
		}
		idx := firstFractional(sol.X, p.Integer)
		if idx < 0 {
			best = sol
			continue
		}
		fl := math.Floor(sol.X[idx])
		n := p.NumVars()
		down := make([]float64, n)
		down[idx] = 1
		up := make([]float64, n)
		up[idx] = 1
		stack = append(stack,
			node{extra: append(append([]Constraint{}, nd.extra...), Constraint{Coef: down, Rel: LE, RHS: fl})},
			node{extra: append(append([]Constraint{}, nd.extra...), Constraint{Coef: up, Rel: GE, RHS: fl + 1})},
		)
	}
	if best.Status == Optimal {
		return best
	}
	return Solution{Status: Infeasible}
}

func firstFractional(x []float64, integer []bool) int {
	for i, xi := range x {
		if i < len(integer) && integer[i] {
			if math.Abs(xi-math.Round(xi)) > 1e-6 {
				return i
			}
		}
	}
	return -1
}

// maxBBNodes caps branch-and-bound tree exploration; best-so-far remains
// a valid incumbent on bail-out.
const maxBBNodes = 100_000

// --- two-phase simplex ------------------------------------------------------

// tableau is a dense simplex tableau in standard form: maximize c·x with
// equality rows after adding slack/surplus/artificial variables. Row i
// is a[i*n : (i+1)*n]. Artificial columns occupy [artStart, n).
type tableau struct {
	m, n     int // constraints, columns
	a        []float64
	b        []float64
	c        []float64 // real objective over all n columns
	basis    []int
	nStruct  int
	artStart int
	cb       []float64 // scratch: objective coefficient of each basic var
}

func (t *tableau) row(i int) []float64 {
	return t.a[i*t.n : (i+1)*t.n]
}

// newTableau loads p into a fresh tableau.
func newTableau(p *Problem) (*tableau, error) {
	m := len(p.Cons)
	nStruct := p.NumVars()
	for _, con := range p.Cons {
		if len(con.Coef) != nStruct {
			return nil, fmt.Errorf("lp: constraint has %d coefficients, want %d", len(con.Coef), nStruct)
		}
	}
	// Count slacks and artificials.
	nSlack := 0
	for _, con := range p.Cons {
		if con.Rel != EQ {
			nSlack++
		}
	}
	nArt := m // one artificial per row keeps phase 1 trivial
	n := nStruct + nSlack + nArt
	t := &tableau{
		m: m, n: n,
		a:        make([]float64, m*n),
		b:        make([]float64, m),
		c:        make([]float64, n),
		basis:    make([]int, m),
		nStruct:  nStruct,
		artStart: nStruct + nSlack,
		cb:       make([]float64, m),
	}
	copy(t.c, p.Obj)
	slack := nStruct
	for i, con := range p.Cons {
		row := t.row(i)
		copy(row, con.Coef)
		rhs := con.RHS
		sign := 1.0
		if rhs < 0 { // normalize rhs >= 0
			sign = -1
			for j := range con.Coef {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		switch con.Rel {
		case LE:
			row[slack] = sign * 1
			slack++
		case GE:
			row[slack] = sign * -1
			slack++
		}
		// Artificial variable (always basic initially).
		row[t.artStart+i] = 1
		t.b[i] = rhs
		t.basis[i] = t.artStart + i
	}
	return t, nil
}

// pivot performs a pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	pr := t.row(row)
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	t.b[row] /= pv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ri := t.row(i)
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
}

// runSimplex maximizes objective coefficients obj over the current
// tableau (obj has length t.n). barArt bars artificial columns from
// entering the basis (phase 2).
func (t *tableau) runSimplex(obj []float64, barArt bool) Status {
	// Reduced costs require expressing obj through the basis: maintain
	// z_j - c_j implicitly by recomputing per iteration (m and n are
	// small for IPET problems; clarity over speed).
	for iter := 0; iter < 10000; iter++ {
		// y = c_B B^{-1} is implicit: compute reduced costs r_j = obj_j - sum_i obj_basis[i] * a[i][j].
		for i, bi := range t.basis {
			t.cb[i] = obj[bi]
		}
		entering := -1
		for j := 0; j < t.n; j++ {
			if barArt && j >= t.artStart {
				continue
			}
			r := obj[j]
			for i := 0; i < t.m; i++ {
				r -= t.cb[i] * t.a[i*t.n+j]
			}
			if r > eps { // Bland: first improving column
				entering = j
				break
			}
		}
		if entering < 0 {
			return Optimal
		}
		// Ratio test (Bland: smallest basis index tie-break).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i*t.n+entering] > eps {
				ratio := t.b[i] / t.a[i*t.n+entering]
				if ratio < bestRatio-eps || (math.Abs(ratio-bestRatio) <= eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, entering)
	}
	return Unbounded // did not converge; treat as failure
}

func (t *tableau) solve() Solution {
	// Phase 1: minimize sum of artificials == maximize -sum(artificials).
	obj := make([]float64, t.n)
	for j := t.artStart; j < t.n; j++ {
		obj[j] = -1
	}
	st := t.runSimplex(obj, false)
	if st != Optimal {
		return Solution{Status: Infeasible}
	}
	artSum := 0.0
	for i, bi := range t.basis {
		if bi >= t.artStart {
			artSum += t.b[i]
		}
	}
	if artSum > 1e-6 {
		return Solution{Status: Infeasible}
	}
	// Drive remaining artificials out of the basis where possible.
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart && t.b[i] <= eps {
			ri := t.row(i)
			for j := 0; j < t.artStart; j++ {
				if math.Abs(ri[j]) > eps {
					t.pivot(i, j)
					break
				}
			}
		}
	}
	// Phase 2: maximize the real objective, artificials barred.
	st = t.runSimplex(t.c, true)
	if st != Optimal {
		return Solution{Status: st}
	}
	x := make([]float64, t.nStruct)
	for i, bi := range t.basis {
		if bi < t.nStruct {
			x[bi] = t.b[i]
		}
	}
	objVal := 0.0
	for j, cj := range t.c[:t.nStruct] {
		objVal += cj * x[j]
	}
	return Solution{Status: Optimal, X: x, Obj: objVal}
}
