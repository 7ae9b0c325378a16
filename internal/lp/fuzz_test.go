package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomMIP builds a small bounded mixed-integer problem from rng. Every
// variable gets an explicit upper bound so the relaxation is never
// unbounded and branch-and-bound terminates quickly.
func randomMIP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(5)
	p := &Problem{Obj: make([]float64, n), Integer: make([]bool, n)}
	for j := 0; j < n; j++ {
		p.Obj[j] = float64(rng.Intn(21) - 5)
		p.Integer[j] = rng.Intn(3) > 0
	}
	m := 1 + rng.Intn(5)
	for i := 0; i < m; i++ {
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			coef[j] = float64(rng.Intn(11) - 3)
		}
		rhs := float64(rng.Intn(30) - 5)
		switch rng.Intn(4) {
		case 0:
			p.AddGE(coef, rhs)
		case 1:
			p.AddEQ(coef, rhs)
		default:
			p.AddLE(coef, rhs)
		}
	}
	for j := 0; j < n; j++ {
		coef := make([]float64, n)
		coef[j] = 1
		p.AddLE(coef, float64(3+rng.Intn(12)))
	}
	return p
}

// FuzzSolveMIP checks SolveMIP against what an answer must satisfy: an
// optimal one meets every constraint, is integral where required, does
// not beat the LP relaxation, and reports the objective of its X. On
// all-integer instances, whose variables randomMIP bounds by 14, it must
// also equal exhaustive enumeration of the bounded box, including when
// that box holds no feasible point.
func FuzzSolveMIP(f *testing.F) {
	// Seed 22 is the first whose optimum a search missing either branch
	// direction gets wrong.
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := randomMIP(rand.New(rand.NewSource(seed)))
		sol := SolveMIP(p)
		if best, feasible, ok := enumerate(p); ok {
			if !feasible {
				if sol.Status != Infeasible {
					t.Fatalf("seed %d: status %v, enumeration finds no feasible point", seed, sol.Status)
				}
				return
			}
			if sol.Status != Optimal {
				t.Fatalf("seed %d: status %v, enumeration finds optimum %v", seed, sol.Status, best)
			}
			if !near(sol.Obj, best) {
				t.Fatalf("seed %d: obj %v, enumeration finds optimum %v", seed, sol.Obj, best)
			}
		}
		if sol.Status != Optimal {
			return
		}
		if len(sol.X) != p.NumVars() {
			t.Fatalf("seed %d: %d values for %d variables", seed, len(sol.X), p.NumVars())
		}
		obj := 0.0
		for j, xj := range sol.X {
			if xj < -1e-6 {
				t.Fatalf("seed %d: x[%d] = %v is negative", seed, j, xj)
			}
			obj += p.Obj[j] * xj
		}
		if !near(sol.Obj, obj) {
			t.Fatalf("seed %d: reported obj %v, c·x = %v", seed, sol.Obj, obj)
		}
		for i, con := range p.Cons {
			if !satisfies(con, sol.X, 1e-6*(1+math.Abs(con.RHS))) {
				t.Fatalf("seed %d: constraint %d violated by %v", seed, i, sol.X)
			}
		}
		for j, xj := range sol.X {
			if p.Integer[j] && math.Abs(xj-math.Round(xj)) > 1e-6 {
				t.Fatalf("seed %d: integer x[%d] = %v", seed, j, xj)
			}
		}
		relax := Solve(p)
		if relax.Status != Optimal || sol.Obj > relax.Obj+1e-6*(1+math.Abs(relax.Obj)) {
			t.Fatalf("seed %d: obj %v beats the relaxation (%v, obj %v)", seed, sol.Obj, relax.Status, relax.Obj)
		}
	})
}

// satisfies reports whether x meets con within tol.
func satisfies(con Constraint, x []float64, tol float64) bool {
	dot := 0.0
	for j, c := range con.Coef {
		dot += c * x[j]
	}
	switch con.Rel {
	case LE:
		return dot <= con.RHS+tol
	case GE:
		return dot >= con.RHS-tol
	}
	return math.Abs(dot-con.RHS) <= tol
}

// enumerate finds the optimum of an all-integer p by trying every
// integer point of the box its unit upper-bound rows span. ok is false
// when p has a continuous variable or a variable without such a bound.
func enumerate(p *Problem) (best float64, feasible, ok bool) {
	n := p.NumVars()
	hi := make([]int, n)
	for j := range hi {
		hi[j] = math.MaxInt
		if !p.Integer[j] {
			return 0, false, false
		}
	}
	for _, con := range p.Cons {
		if unit := unitRow(con); unit >= 0 && con.Rel == LE {
			hi[unit] = min(hi[unit], int(math.Floor(con.RHS)))
		}
	}
	for _, h := range hi {
		if h == math.MaxInt {
			return 0, false, false
		}
	}
	x := make([]float64, n)
	best = math.Inf(-1)
	var walk func(j int)
	walk = func(j int) {
		if j == n {
			for _, con := range p.Cons {
				if !satisfies(con, x, 0) {
					return
				}
			}
			obj := 0.0
			for k, xk := range x {
				obj += p.Obj[k] * xk
			}
			if !feasible || obj > best {
				best, feasible = obj, true
			}
			return
		}
		for v := 0; v <= hi[j]; v++ {
			x[j] = float64(v)
			walk(j + 1)
		}
	}
	walk(0)
	return best, feasible, true
}

// unitRow returns j when con's coefficients are the unit vector e_j, else -1.
func unitRow(con Constraint) int {
	unit := -1
	for j, c := range con.Coef {
		switch {
		case c == 0:
		case c == 1 && unit < 0:
			unit = j
		default:
			return -1
		}
	}
	return unit
}
