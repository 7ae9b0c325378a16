package ir

import "math/bits"

// UseSets summarizes which variables a statement region may read and
// write. Matrix accesses are element accesses to the variable's buffer;
// scalar accesses are register reads/writes.
//
// The four sets are bitsets over the slots of one program's table (see
// VarSet), held in one allocation of words: MatReads, MatWrites,
// ScalReads and ScalWrite in turn, a quarter each. Members the bits
// cannot hold sit in per-set lists, allocated only when one occurs.
type UseSets struct {
	prog  *Program
	bits  []uint64
	extra *[4][]*Var
}

// The four sets, in the order of their words.
const (
	matReads = iota
	matWrites
	scalReads
	scalWrite
)

// newUseSets returns empty use sets sized to p's table.
func newUseSets(p *Program) UseSets {
	return UseSets{prog: p, bits: make([]uint64, 4*wordsFor(p))}
}

func (u *UseSets) set(k int) VarSet {
	w := len(u.bits) / 4
	s := VarSet{prog: u.prog, bits: u.bits[k*w : (k+1)*w : (k+1)*w]}
	if u.extra != nil {
		s.extra = u.extra[k]
	}
	return s
}

// add inserts v into set k of use sets under construction.
func (u *UseSets) add(k int, v *Var) {
	s := u.set(k)
	if i := s.index(v); i >= 0 {
		s.bits[i>>6] |= 1 << (uint(i) & 63)
		return
	}
	if s.hasExtra(v) {
		return
	}
	if u.extra == nil {
		u.extra = new([4][]*Var)
	}
	u.extra[k] = append(u.extra[k], v)
}

// MatReads is the set of matrices the region may read.
func (u UseSets) MatReads() VarSet { return u.set(matReads) }

// MatWrites is the set of matrices the region may write.
func (u UseSets) MatWrites() VarSet { return u.set(matWrites) }

// ScalReads is the set of scalars the region may read.
func (u UseSets) ScalReads() VarSet { return u.set(scalReads) }

// ScalWrite is the set of scalars the region may write.
func (u UseSets) ScalWrite() VarSet { return u.set(scalWrite) }

// Union returns new use sets holding u's and o's members: the summary
// of the two regions run one after the other. Neither operand changes.
func (u UseSets) Union(o UseSets) UseSets {
	out := UseSets{prog: u.prog}
	if out.prog == nil {
		out.prog = o.prog
	}
	w := max(len(u.bits), len(o.bits)) / 4
	out.bits = make([]uint64, 4*w)
	for k := 0; k < 4; k++ {
		part := out.set(k)
		unionInto(&part, u.set(k), o.set(k))
		if len(part.extra) > 0 {
			if out.extra == nil {
				out.extra = new([4][]*Var)
			}
			out.extra[k] = part.extra
		}
	}
	return out
}

// Precedes reports whether the region u summarizes must stay before
// the later region o: a matrix one writes and the other accesses, for
// which meet reports that the two regions' accesses may meet, or a
// scalar in live that u writes and o accesses, or that o writes and u
// reads. When the sets and live are bitsets over one program with
// every member in the bits, that is one pass over their words.
func (u UseSets) Precedes(o UseSets, live VarSet, meet func(*Var) bool) bool {
	if u.prog != o.prog || u.extra != nil || o.extra != nil || len(live.extra) > 0 ||
		(live.prog != u.prog && len(live.bits) > 0) {
		return !u.MatWrites().EachCommon(o.MatReads(), func(v *Var) bool { return !meet(v) }) ||
			!u.MatWrites().EachCommon(o.MatWrites(), func(v *Var) bool { return !meet(v) }) ||
			!o.MatWrites().EachCommon(u.MatReads(), func(v *Var) bool { return !meet(v) }) ||
			!u.ScalWrite().EachCommon(live, func(v *Var) bool { return !o.ScalReads().Has(v) && !o.ScalWrite().Has(v) }) ||
			!o.ScalWrite().EachCommon(live, func(v *Var) bool { return !u.ScalReads().Has(v) })
	}
	wu, wo := len(u.bits)/4, len(o.bits)/4
	for k := 0; k < min(wu, wo); k++ {
		uMR, uMW, uSR, uSW := u.bits[k], u.bits[wu+k], u.bits[2*wu+k], u.bits[3*wu+k]
		oMR, oMW, oSR, oSW := o.bits[k], o.bits[wo+k], o.bits[2*wo+k], o.bits[3*wo+k]
		if k < len(live.bits) && live.bits[k]&(uSW&(oSR|oSW)|oSW&uSR) != 0 {
			return true
		}
		for m := uMW&(oMR|oMW) | oMW&uMR; m != 0; m &= m - 1 {
			if meet(u.prog.Vars[k<<6|bits.TrailingZeros64(m)]) {
				return true
			}
		}
	}
	return false
}

// Words returns the sets' words over p's table, the pointer-free form a
// snapshot stores (it aliases them; use sets never change once built).
// ok is false when a member has no slot in p.
func (u UseSets) Words(p *Program) (words []uint64, ok bool) {
	if u.extra != nil || (u.prog != p && len(u.bits) > 0) {
		return nil, false
	}
	return u.bits, true
}

// UseSetsFromWords rebuilds use sets over p from Words' encoding. The
// sets alias words, which must not change afterwards.
func UseSetsFromWords(p *Program, words []uint64) UseSets {
	return UseSets{prog: p, bits: words}
}

// addExpr records the variables read by one evaluation of e.
func (u *UseSets) addExpr(e Expr) {
	switch x := e.(type) {
	case *VarRef:
		u.add(scalReads, x.V)
	case *Index:
		u.add(matReads, x.V)
		for _, ix := range x.Idx {
			u.addExpr(ix)
		}
	case *Bin:
		u.addExpr(x.X)
		u.addExpr(x.Y)
	case *Un:
		u.addExpr(x.X)
	case *Intrinsic:
		for _, a := range x.Args {
			u.addExpr(a)
		}
	}
}

// ExprUses returns the use sets of one evaluation of e.
func ExprUses(e Expr) UseSets {
	u := newUseSets(exprHome(e))
	u.addExpr(e)
	return u
}

// ComputeUses returns the may-read / may-write sets of a statement
// region, sized to the table of the program that registers its first
// variable.
func ComputeUses(stmts []Stmt) UseSets {
	u := newUseSets(regionHome(stmts))
	u.addStmts(stmts)
	return u
}

func (u *UseSets) addStmts(stmts []Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignScalar:
			u.addExpr(st.Src)
			u.add(scalWrite, st.Dst)
		case *Store:
			for _, ix := range st.Idx {
				u.addExpr(ix)
			}
			u.addExpr(st.Src)
			u.add(matWrites, st.Dst)
		case *For:
			u.addExpr(st.Lo)
			u.addExpr(st.Step)
			u.addExpr(st.Hi)
			u.add(scalWrite, st.IVar)
			u.addStmts(st.Body)
		case *While:
			u.addExpr(st.Cond)
			u.addStmts(st.Body)
		case *If:
			u.addExpr(st.Cond)
			u.addStmts(st.Then)
			u.addStmts(st.Else)
		}
	}
}

// regionHome returns the program that registers the first registered
// variable of stmts, in program order, or nil.
func regionHome(stmts []Stmt) *Program {
	for _, s := range stmts {
		var p *Program
		switch st := s.(type) {
		case *AssignScalar:
			if p = st.Dst.owner; p == nil {
				p = exprHome(st.Src)
			}
		case *Store:
			if p = st.Dst.owner; p == nil {
				p = exprHome(st.Src)
			}
			for _, ix := range st.Idx {
				if p == nil {
					p = exprHome(ix)
				}
			}
		case *For:
			if p = st.IVar.owner; p == nil {
				p = regionHome(st.Body)
			}
		case *While:
			if p = exprHome(st.Cond); p == nil {
				p = regionHome(st.Body)
			}
		case *If:
			if p = exprHome(st.Cond); p == nil {
				if p = regionHome(st.Then); p == nil {
					p = regionHome(st.Else)
				}
			}
		}
		if p != nil {
			return p
		}
	}
	return nil
}

// exprHome is regionHome for one expression.
func exprHome(e Expr) *Program {
	switch x := e.(type) {
	case *VarRef:
		return x.V.owner
	case *Index:
		if x.V.owner != nil {
			return x.V.owner
		}
		for _, ix := range x.Idx {
			if p := exprHome(ix); p != nil {
				return p
			}
		}
	case *Bin:
		if p := exprHome(x.X); p != nil {
			return p
		}
		return exprHome(x.Y)
	case *Un:
		return exprHome(x.X)
	case *Intrinsic:
		for _, a := range x.Args {
			if p := exprHome(a); p != nil {
				return p
			}
		}
	}
	return nil
}

// DefinedBeforeUse summarizes the region stmts for the scalar
// privatization question of the tool-chain: the set of scalars the
// region unconditionally assigns, by an AssignScalar or as a for-loop
// induction variable, before any statement that may read them. A scalar
// the region never touches is not in the set.
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
func DefinedBeforeUse(stmts []Stmt) VarSet {
	p := regionHome(stmts)
	w := wordsFor(p)
	words := make([]uint64, 2*w)
	ft := firstTouch{touched: VarSet{prog: p, bits: words[:w:w]}, defined: VarSet{prog: p, bits: words[w:]}}
	ft.stmts(stmts, true)
	return ft.defined
}

// firstTouch records, for every scalar whose first touch it has seen,
// that it was touched and whether that touch defined it.
type firstTouch struct {
	touched, defined VarSet
}

// stmts records the first touches in stmts. Under an if or a while,
// defines is false: the branch or body may not run, so no touch there
// defines. Each answer depends only on its own scalar's first touch, so
// nested bodies record into the same sets.
func (ft *firstTouch) stmts(stmts []Stmt, defines bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignScalar:
			ft.reads(st.Src)
			ft.touch(st.Dst, defines)
		case *Store:
			for _, ix := range st.Idx {
				ft.reads(ix)
			}
			ft.reads(st.Src)
		case *For:
			ft.reads(st.Lo)
			ft.reads(st.Step)
			ft.reads(st.Hi)
			ft.touch(st.IVar, defines)
			ft.stmts(st.Body, defines)
		case *While:
			ft.reads(st.Cond)
			ft.stmts(st.Body, false)
		case *If:
			ft.reads(st.Cond)
			ft.stmts(st.Then, false)
			ft.stmts(st.Else, false)
		}
	}
}

// reads records every scalar one evaluation of e reads, matrix
// subscripts included, as read before any definition unless an earlier
// touch decided it.
func (ft *firstTouch) reads(e Expr) {
	WalkExprs(e, func(sub Expr) {
		if r, ok := sub.(*VarRef); ok {
			ft.touch(r.V, false)
		}
	})
}

// touch records defined as v's answer if v has none yet.
func (ft *firstTouch) touch(v *Var, defined bool) {
	if ft.touched.Has(v) {
		return
	}
	ft.touched.add(v)
	if defined {
		ft.defined.add(v)
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
	ComputeUses(stmts).ScalWrite().Each(func(v *Var) bool {
		env.nonstatic[v] = true
		return true
	})
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
