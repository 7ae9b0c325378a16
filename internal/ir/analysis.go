package ir

// UseSets summarizes which variables a statement region may read and
// write. Matrix accesses are element accesses to the variable's buffer;
// scalar accesses are register reads/writes.
type UseSets struct {
	MatReads  map[*Var]bool
	MatWrites map[*Var]bool
	ScalReads map[*Var]bool
	ScalWrite map[*Var]bool
}

// NewUseSets returns empty use sets.
func NewUseSets() *UseSets {
	return &UseSets{
		MatReads:  map[*Var]bool{},
		MatWrites: map[*Var]bool{},
		ScalReads: map[*Var]bool{},
		ScalWrite: map[*Var]bool{},
	}
}

// AddExprUses records the variables read by one evaluation of e.
func (u *UseSets) AddExprUses(e Expr) {
	WalkExprs(e, func(sub Expr) {
		switch x := sub.(type) {
		case *VarRef:
			u.ScalReads[x.V] = true
		case *Index:
			u.MatReads[x.V] = true
		}
	})
}

// ComputeUses returns the may-read / may-write sets of a statement region.
func ComputeUses(stmts []Stmt) *UseSets {
	u := NewUseSets()
	WalkStmts(stmts, func(s Stmt) bool {
		switch st := s.(type) {
		case *AssignScalar:
			u.AddExprUses(st.Src)
			u.ScalWrite[st.Dst] = true
		case *Store:
			for _, ix := range st.Idx {
				u.AddExprUses(ix)
			}
			u.AddExprUses(st.Src)
			u.MatWrites[st.Dst] = true
		case *For:
			u.AddExprUses(st.Lo)
			u.AddExprUses(st.Step)
			u.AddExprUses(st.Hi)
			u.ScalWrite[st.IVar] = true
		case *While:
			u.AddExprUses(st.Cond)
		case *If:
			u.AddExprUses(st.Cond)
		}
		return true
	})
	return u
}

// DefinedBeforeUse summarizes the region stmts for the scalar
// privatization question of the tool-chain: for every scalar the region
// touches, whether it unconditionally assigns the scalar, by an
// AssignScalar or as a for-loop induction variable, before any statement
// that may read it. A scalar the region never touches maps to false, so
// a lookup answers for every scalar.
//
// The scalar's first touch decides. An assignment defines it unless its
// source reads it. A for loop whose bounds read it does not define it;
// one whose induction variable it is does; any other for loop whose body
// touches it decides by its body (a body that defines the scalar before
// use makes it iteration-private there: the temporaries and induction
// variables of nested loops). Any other statement that touches it does
// not define it.
//
// The transformations' legality checks (chunking, fission, fusion,
// tiling) and the task graph's live-out scalars compute the summary once
// per region and look scalars up in it.
func DefinedBeforeUse(stmts []Stmt) map[*Var]bool {
	first := map[*Var]bool{}
	firstTouches(stmts, first, true)
	return first
}

// firstTouches records in first the answer for every scalar whose first
// touch in the region lies in stmts. Under an if or a while, defines is
// false: the branch or body may not run, so no touch there defines. Each
// answer depends only on its own scalar's first touch, so nested bodies
// record into the same map.
func firstTouches(stmts []Stmt, first map[*Var]bool, defines bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignScalar:
			touchReads(st.Src, first)
			touch(first, st.Dst, defines)
		case *Store:
			for _, ix := range st.Idx {
				touchReads(ix, first)
			}
			touchReads(st.Src, first)
		case *For:
			touchReads(st.Lo, first)
			touchReads(st.Step, first)
			touchReads(st.Hi, first)
			touch(first, st.IVar, defines)
			firstTouches(st.Body, first, defines)
		case *While:
			touchReads(st.Cond, first)
			firstTouches(st.Body, first, false)
		case *If:
			touchReads(st.Cond, first)
			firstTouches(st.Then, first, false)
			firstTouches(st.Else, first, false)
		}
	}
}

// touchReads records every scalar one evaluation of e reads, matrix
// subscripts included, as read before any definition unless an earlier
// touch decided it.
func touchReads(e Expr, first map[*Var]bool) {
	WalkExprs(e, func(sub Expr) {
		if r, ok := sub.(*VarRef); ok {
			touch(first, r.V, false)
		}
	})
}

// touch records defined as v's answer if v has none yet.
func touch(first map[*Var]bool, v *Var, defined bool) {
	if _, ok := first[v]; !ok {
		first[v] = defined
	}
}

// AccessCounts is a static worst-case count of element accesses per
// matrix variable for one execution of a statement region: loop bodies
// multiply by the loop's trip count (or @bound), if-branches take the
// per-variable maximum of the two sides.
type AccessCounts struct {
	Reads  map[*Var]int64
	Writes map[*Var]int64
}

// NewAccessCounts returns empty counts.
func NewAccessCounts() *AccessCounts {
	return &AccessCounts{Reads: map[*Var]int64{}, Writes: map[*Var]int64{}}
}

// Total returns reads+writes for variable v.
func (c *AccessCounts) Total(v *Var) int64 { return c.Reads[v] + c.Writes[v] }

// TotalAll sums all counted accesses.
func (c *AccessCounts) TotalAll() int64 {
	var n int64
	for _, k := range c.Reads {
		n += k
	}
	for _, k := range c.Writes {
		n += k
	}
	return n
}

// CountAccesses computes worst-case element access counts for a region
// in one walk: every access adds the product of its enclosing loops' trip
// counts and @bounds. Only an if counts its branches apart, to take their
// per-variable maxima.
func CountAccesses(stmts []Stmt) *AccessCounts {
	c := NewAccessCounts()
	c.count(stmts, 1)
	return c
}

// count adds the accesses of mult executions of stmts to c. Integer sums
// and products wrap alike in any order, so the counts do not depend on
// where the multiplier is applied, not even on overflow.
func (c *AccessCounts) count(stmts []Stmt, mult int64) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignScalar:
			c.countExpr(st.Src, mult)
		case *Store:
			for _, ix := range st.Idx {
				c.countExpr(ix, mult)
			}
			c.countExpr(st.Src, mult)
			c.Writes[st.Dst] += mult
		case *For:
			c.countExpr(st.Lo, mult)
			c.countExpr(st.Step, mult)
			c.countExpr(st.Hi, mult)
			c.count(st.Body, mult*int64(st.Trip))
		case *While:
			// The condition is evaluated once more on exit.
			iter := mult * int64(st.Bound)
			c.countExpr(st.Cond, iter)
			c.count(st.Body, iter)
			c.countExpr(st.Cond, mult)
		case *If:
			c.countExpr(st.Cond, mult)
			then, els := CountAccesses(st.Then), CountAccesses(st.Else)
			addMax(c.Reads, then.Reads, els.Reads, mult)
			addMax(c.Writes, then.Writes, els.Writes, mult)
		}
	}
}

func (c *AccessCounts) countExpr(e Expr, mult int64) {
	WalkExprs(e, func(sub Expr) {
		if ix, ok := sub.(*Index); ok {
			c.Reads[ix.V] += mult
		}
	})
}

// addMax adds to dst mult times the per-variable maxima of the branch
// counts a and b. A maximum that is not positive adds nothing.
func addMax(dst, a, b map[*Var]int64, mult int64) {
	for v, n := range a {
		if m := b[v]; m > n {
			n = m
		}
		if n > 0 {
			dst[v] += n * mult
		}
	}
	for v, n := range b {
		if _, ok := a[v]; !ok && n > 0 {
			dst[v] += n * mult
		}
	}
}

// --- trace staticity -------------------------------------------------------

// TraceEnv tracks, at a program point, which scalar registers hold
// values that are independent of the entry function's inputs ("static").
// The platform simulator uses it to decide which task regions have an
// input-invariant meter trace: a region whose executed control-flow path
// is the same on every run emits the same sequence of Ops/Read/Write
// events regardless of the argument values, so its timing trace can be
// cached and replayed instead of re-metered (internal/sim).
//
// The analysis is conservative in the safe direction: "static" is only
// claimed when provable, and anything data-dependent (matrix loads,
// scalar parameters, values computed from them) is treated as varying.
type TraceEnv struct {
	// nonstatic holds only true entries, so its size counts the varying
	// marks: the loop fixpoint detects a new mark by the size changing.
	nonstatic map[*Var]bool
}

// NewTraceEnv starts the environment at the entry of prog: scalar
// parameters are the inputs, so they (and nothing else yet) vary.
// Unwritten registers read as 0.0 on every run and are static.
func NewTraceEnv(prog *Program) *TraceEnv {
	env := &TraceEnv{nonstatic: map[*Var]bool{}}
	for _, p := range prog.Entry.Params {
		if p.Scalar {
			env.nonstatic[p] = true
		}
	}
	return env
}

// staticExpr reports whether e provably evaluates to the same value on
// every run. Matrix element loads are always treated as varying; the
// builtin intrinsics are pure functions, so an intrinsic over static
// arguments is static.
func (env *TraceEnv) staticExpr(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *Const:
		return true
	case *VarRef:
		return !env.nonstatic[x.V]
	case *Index:
		return false
	case *Bin:
		return env.staticExpr(x.X) && env.staticExpr(x.Y)
	case *Un:
		return env.staticExpr(x.X)
	case *Intrinsic:
		for _, a := range x.Args {
			if !env.staticExpr(a) {
				return false
			}
		}
		return true
	}
	return false
}

// poison marks every scalar assigned anywhere in the region as varying —
// the catch-all effect summary for regions whose execution is
// data-dependent (while loops, ifs on varying conditions).
func (env *TraceEnv) poison(stmts []Stmt) {
	for v := range ComputeUses(stmts).ScalWrite {
		env.nonstatic[v] = true
	}
}

// AdvanceRegion reports whether executing stmts from the current program
// point yields an input-invariant meter trace, and advances the
// environment past the region's scalar effects. Regions must be visited
// in execution order (the environment is the carrier of inter-region
// dataflow).
//
// A region's trace is invariant iff its executed path is the same on
// every run: it contains no while (treated as data-dependent), and every
// for-loop's lo/hi/step and every if's condition are static where they
// are evaluated. Every meter event inside is then path-determined.
func (env *TraceEnv) AdvanceRegion(stmts []Stmt) bool {
	inv := true
	for _, s := range stmts {
		if st, ok := s.(*AssignScalar); ok && env.staticExpr(st.Src) {
			// The region's top level runs exactly once, so a static
			// reassignment clears a varying mark.
			delete(env.nonstatic, st.Dst)
			continue
		}
		if !env.advance(s) {
			inv = false
		}
	}
	return inv
}

// advance is AdvanceRegion for one statement that may run any number of
// times, restricted to monotone effects (marks are only ever added),
// which guarantees the loop-body fixpoint terminates.
func (env *TraceEnv) advance(s Stmt) bool {
	switch st := s.(type) {
	case *AssignScalar:
		if !env.staticExpr(st.Src) {
			env.nonstatic[st.Dst] = true
		}
	case *For:
		inv := env.staticExpr(st.Lo) && env.staticExpr(st.Hi) && env.staticExpr(st.Step)
		if !inv {
			env.nonstatic[st.IVar] = true
		}
		// Iterated body effects: run monotone passes until the
		// environment stabilizes, so assignments feeding back across
		// iterations are accounted for; the final pass then judges
		// nested invariance under the stable set.
		for {
			before := len(env.nonstatic)
			bodyInv := env.advanceAll(st.Body)
			if len(env.nonstatic) == before {
				return inv && bodyInv
			}
		}
	case *If:
		return env.advanceIf(st)
	case *While:
		env.poison([]Stmt{s})
		return false
	}
	// Store: no scalar effects, and its Read/Write events are
	// path-determined. Break, Continue: deterministic control transfer.
	return true
}

// advanceIf handles an if. A static condition takes the same branch on
// every run, so the path stays invariant; which branch is not known
// here, so both branches' effects apply.
func (env *TraceEnv) advanceIf(st *If) bool {
	if !env.staticExpr(st.Cond) {
		env.poison([]Stmt{st})
		return false
	}
	thenInv := env.advanceAll(st.Then)
	return env.advanceAll(st.Else) && thenInv
}

func (env *TraceEnv) advanceAll(stmts []Stmt) bool {
	inv := true
	for _, s := range stmts {
		if !env.advance(s) {
			inv = false
		}
	}
	return inv
}
