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

// DefinesBeforeUse reports whether the region stmts unconditionally
// assigns the scalar v, by an AssignScalar or as a for-loop induction
// variable, before any statement that may read it. A for loop whose
// bounds do not read v but whose body touches it decides by its body:
// a body that defines v before use makes v iteration-private there (the
// temporaries and induction variables of nested loops). A region that
// never touches v does not define it.
//
// This is the scalar privatization question of the tool-chain: the
// transformations' legality checks (chunking, fission, fusion, tiling)
// and the task graph's live-out scalars all ask it. It walks the region
// without building use sets.
func DefinesBeforeUse(stmts []Stmt, v *Var) bool {
	for i, s := range stmts {
		switch st := s.(type) {
		case *AssignScalar:
			if st.Dst == v {
				return !readsScalar(st.Src, v)
			}
		case *For:
			if readsScalar(st.Lo, v) || readsScalar(st.Step, v) || readsScalar(st.Hi, v) {
				return false
			}
			if st.IVar == v {
				return true
			}
			if touchesScalar(st.Body, v) {
				return DefinesBeforeUse(st.Body, v)
			}
			continue
		}
		if touchesScalar(stmts[i:i+1], v) {
			return false
		}
	}
	return false
}

// readsScalar reports whether one evaluation of e reads the scalar v,
// matrix subscripts included.
func readsScalar(e Expr, v *Var) bool {
	found := false
	WalkExprs(e, func(sub Expr) {
		if r, ok := sub.(*VarRef); ok && r.V == v {
			found = true
		}
	})
	return found
}

// touchesScalar reports whether stmts, recursively, read or write the
// scalar v: ComputeUses restricted to one variable.
func touchesScalar(stmts []Stmt, v *Var) bool {
	return !WalkStmts(stmts, func(s Stmt) bool {
		switch st := s.(type) {
		case *AssignScalar:
			return st.Dst != v && !readsScalar(st.Src, v)
		case *Store:
			for _, ix := range st.Idx {
				if readsScalar(ix, v) {
					return false
				}
			}
			return !readsScalar(st.Src, v)
		case *For:
			return st.IVar != v && !readsScalar(st.Lo, v) && !readsScalar(st.Step, v) && !readsScalar(st.Hi, v)
		case *While:
			return !readsScalar(st.Cond, v)
		case *If:
			return !readsScalar(st.Cond, v)
		}
		return true
	})
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

func (c *AccessCounts) scale(f int64) {
	for v := range c.Reads {
		c.Reads[v] *= f
	}
	for v := range c.Writes {
		c.Writes[v] *= f
	}
}

func (c *AccessCounts) add(other *AccessCounts) {
	for v, k := range other.Reads {
		c.Reads[v] += k
	}
	for v, k := range other.Writes {
		c.Writes[v] += k
	}
}

// maxInto folds other into c taking per-variable maxima.
func (c *AccessCounts) maxInto(other *AccessCounts) *AccessCounts {
	out := NewAccessCounts()
	keys := map[*Var]bool{}
	for v := range c.Reads {
		keys[v] = true
	}
	for v := range other.Reads {
		keys[v] = true
	}
	for v := range keys {
		a, b := c.Reads[v], other.Reads[v]
		if b > a {
			a = b
		}
		if a > 0 {
			out.Reads[v] = a
		}
	}
	keys = map[*Var]bool{}
	for v := range c.Writes {
		keys[v] = true
	}
	for v := range other.Writes {
		keys[v] = true
	}
	for v := range keys {
		a, b := c.Writes[v], other.Writes[v]
		if b > a {
			a = b
		}
		if a > 0 {
			out.Writes[v] = a
		}
	}
	return out
}

func exprAccessCounts(e Expr, c *AccessCounts) {
	WalkExprs(e, func(sub Expr) {
		if ix, ok := sub.(*Index); ok {
			c.Reads[ix.V]++
		}
	})
}

// CountAccesses computes worst-case element access counts for a region.
func CountAccesses(stmts []Stmt) *AccessCounts {
	total := NewAccessCounts()
	for _, s := range stmts {
		total.add(countStmtAccesses(s))
	}
	return total
}

func countStmtAccesses(s Stmt) *AccessCounts {
	c := NewAccessCounts()
	switch st := s.(type) {
	case *AssignScalar:
		exprAccessCounts(st.Src, c)
	case *Store:
		for _, ix := range st.Idx {
			exprAccessCounts(ix, c)
		}
		exprAccessCounts(st.Src, c)
		c.Writes[st.Dst]++
	case *For:
		exprAccessCounts(st.Lo, c)
		exprAccessCounts(st.Step, c)
		exprAccessCounts(st.Hi, c)
		body := CountAccesses(st.Body)
		body.scale(int64(st.Trip))
		c.add(body)
	case *While:
		iter := NewAccessCounts()
		exprAccessCounts(st.Cond, iter)
		iter.add(CountAccesses(st.Body))
		iter.scale(int64(st.Bound))
		// The condition is evaluated once more on exit.
		exprAccessCounts(st.Cond, iter)
		c.add(iter)
	case *If:
		exprAccessCounts(st.Cond, c)
		thenC := CountAccesses(st.Then)
		elseC := CountAccesses(st.Else)
		c.add(thenC.maxInto(elseC))
	}
	return c
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
