// Package mc is the exact WCET engine: program slicing plus real-time
// model checking, after Béchennec & Cassez ("Computation of WCET using
// Program Slicing and Real-Time Model-Checking") and Becker et al.
// ("Scalable and Precise Estimation and Debugging of WCET … A Comeback
// of Model Checking").
//
// The engine slices the region to its timing-relevant statements
// (internal/ir/slice) and explores the region's abstract timed state
// graph exactly: abstract states are valuations of the relevant scalars
// (known constant or unknown) plus an accumulated cycle count, charged
// with the same per-statement cost model as the interpreter's meter.
// Known conditions follow one branch; unknown conditions split the
// state; equal valuations merge keeping the maximum cycle count. The
// result is the exact worst case over the abstract state graph — never
// above the structural/IPET bound (the tree engine takes the max of
// both branches everywhere and full trip counts for every loop), and
// strictly below it whenever dead branches or early loop exits are
// provable from region-constant data.
//
// Soundness of the fallback: whenever the exploration cannot finish —
// the state count exceeds the configured fuel, or a loop's concrete
// header would fault the interpreter — the engine returns the
// structural bound, which is exactly what the IPET engine reports, so a
// fallback can never mask a cross-check violation: it is bit-identical
// to the bound it is checked against. Per-statement fallbacks inside a
// surviving exploration (unknown loop headers or while conditions)
// charge the statement's structural cost, preserving exact <= structural
// by induction.
//
// Observability: expvars argo_wcet_mc_analyses (regions analyzed),
// argo_wcet_mc_states (abstract states created), argo_wcet_mc_fallbacks
// (whole-region structural fallbacks), served by argod's /debug/vars.
package mc

import (
	"encoding/binary"
	"expvar"
	"math"

	"argo/internal/ir"
	"argo/internal/ir/slice"
	"argo/internal/scil"
	"argo/internal/wcet"
)

var (
	mcAnalyses  = expvar.NewInt("argo_wcet_mc_analyses")
	mcStates    = expvar.NewInt("argo_wcet_mc_states")
	mcFallbacks = expvar.NewInt("argo_wcet_mc_fallbacks")
)

// Options bounds one exploration.
type Options struct {
	// MaxStates is the state-count fuel: an exploration holding more
	// than this many simultaneous abstract states falls back to the
	// structural bound (0: DefaultMaxStates).
	MaxStates int
	// MaxSteps bounds total statement evaluations across all states —
	// the time analogue of MaxStates, protecting long-running services
	// against concrete loops with huge trip counts (0: DefaultMaxSteps).
	MaxSteps int64
}

// DefaultMaxStates is the default simultaneous-state fuel.
const DefaultMaxStates = 4096

// DefaultMaxSteps is the default exploration work budget.
const DefaultMaxSteps = 4_000_000

// Engine is the exact model-checking WCET engine; it implements
// wcet.Engine.
type Engine struct{ opt Options }

// New returns an engine with explicit exploration bounds.
func New(opt Options) *Engine {
	if opt.MaxStates <= 0 {
		opt.MaxStates = DefaultMaxStates
	}
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = DefaultMaxSteps
	}
	return &Engine{opt: opt}
}

// Default is the engine instance the "mc" and "both" engine selectors
// resolve to.
var Default = New(Options{})

// Name implements wcet.Engine.
func (e *Engine) Name() string { return "mc" }

// Analyze implements wcet.Engine: the exact bound when the exploration
// completes, the structural (= IPET) bound otherwise. Access counts are
// always the worst-case counts the IPET engine reports — the
// system-level interference analysis must see one traffic model
// regardless of which engine computed the cycle bound.
func (e *Engine) Analyze(stmts []ir.Stmt, m wcet.CostModel) wcet.Report {
	mcAnalyses.Add(1)
	rep := wcet.Analyze(stmts, m)
	ex := &explorer{m: m, sl: slice.Analyze(stmts), maxStates: e.opt.MaxStates, steps: e.opt.MaxSteps}
	ex.index(stmts)
	init := &state{vals: make([]absVal, len(ex.vars))}
	ex.created++
	out, ok := ex.block(stmts, []*state{init})
	mcStates.Add(ex.created)
	if !ok {
		mcFallbacks.Add(1)
		return rep
	}
	var worst int64
	for _, s := range out {
		if s.cycles > worst {
			worst = s.cycles
		}
	}
	// The exact bound replaces the structural one even in the
	// (impossible, by construction) case worst > structural: hiding it
	// behind a min() would mask a soundness bug from the "both"
	// cross-check.
	rep.Cycles = worst
	return rep
}

// --- abstract domain --------------------------------------------------------

// absVal is a flat constant domain over one scalar: a known float64 or
// unknown.
type absVal struct {
	known bool
	val   float64
}

type ctrl byte

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
)

// state is one abstract timed state: a valuation of the timing-relevant
// scalars plus the cycles accumulated on the path that produced it.
type state struct {
	vals   []absVal
	cycles int64
	ctl    ctrl
}

func (s *state) clone(ex *explorer) *state {
	ex.created++
	c := &state{vals: make([]absVal, len(s.vals)), cycles: s.cycles, ctl: s.ctl}
	copy(c.vals, s.vals)
	return c
}

type explorer struct {
	m         wcet.CostModel
	sl        *slice.Slice
	vars      []*ir.Var
	idx       map[*ir.Var]int
	maxStates int
	steps     int64
	created   int64
}

// index assigns dense slots to the region's relevant scalars in
// first-appearance order (deterministic for a given region).
func (ex *explorer) index(stmts []ir.Stmt) {
	ex.idx = map[*ir.Var]int{}
	add := func(v *ir.Var) {
		if v.Scalar && ex.sl.Scalars[v] {
			if _, ok := ex.idx[v]; !ok {
				ex.idx[v] = len(ex.vars)
				ex.vars = append(ex.vars, v)
			}
		}
	}
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.AssignScalar:
			add(st.Dst)
			ir.WalkExprs(st.Src, func(e ir.Expr) {
				if r, ok := e.(*ir.VarRef); ok {
					add(r.V)
				}
			})
		case *ir.For:
			add(st.IVar)
		}
		// Control expressions and store operands only read; their
		// VarRefs are covered by the defining statements above or stay
		// unknown (a sound default for region inputs).
		return true
	})
	// Reads without an in-region definition (parameters, upstream
	// regions) still need slots so conditions over them evaluate
	// uniformly; sweep every expression once.
	visit := func(e ir.Expr) {
		ir.WalkExprs(e, func(sub ir.Expr) {
			if r, ok := sub.(*ir.VarRef); ok {
				add(r.V)
			}
		})
	}
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.AssignScalar:
			visit(st.Src)
		case *ir.Store:
			visit(st.Src)
			for _, ix := range st.Idx {
				visit(ix)
			}
		case *ir.For:
			visit(st.Lo)
			visit(st.Step)
			visit(st.Hi)
		case *ir.While:
			visit(st.Cond)
		case *ir.If:
			visit(st.Cond)
		}
		return true
	})
}

// --- exploration ------------------------------------------------------------

// block runs a statement list over a set of states. States whose
// control tag is set (break/continue taken) are carried through
// untouched — they have left this block.
func (ex *explorer) block(stmts []ir.Stmt, states []*state) ([]*state, bool) {
	for _, s := range stmts {
		var active, suspended []*state
		for _, st := range states {
			if st.ctl == ctrlNone {
				active = append(active, st)
			} else {
				suspended = append(suspended, st)
			}
		}
		if len(active) == 0 {
			return states, true
		}
		out, ok := ex.stmt(s, active)
		if !ok {
			return nil, false
		}
		states = append(suspended, out...)
		if len(states) > ex.maxStates {
			return nil, false
		}
	}
	return states, true
}

func (ex *explorer) stmt(s ir.Stmt, states []*state) ([]*state, bool) {
	ex.steps -= int64(len(states))
	if ex.steps < 0 {
		return nil, false
	}
	switch st := s.(type) {
	case *ir.AssignScalar:
		cost := ex.m.StmtSelfCost(st)
		for _, sa := range states {
			sa.cycles += cost
			if i, ok := ex.idx[st.Dst]; ok {
				sa.vals[i] = ex.eval(st.Src, sa)
			}
		}
		return states, true
	case *ir.Store:
		cost := ex.m.StmtSelfCost(st)
		for _, sa := range states {
			sa.cycles += cost
		}
		return states, true
	case *ir.If:
		cost := ex.m.StmtSelfCost(st)
		var out []*state
		for _, sa := range states {
			sa.cycles += cost
			c := ex.eval(st.Cond, sa)
			switch {
			case c.known && c.val != 0:
				r, ok := ex.block(st.Then, []*state{sa})
				if !ok {
					return nil, false
				}
				out = append(out, r...)
			case c.known:
				r, ok := ex.block(st.Else, []*state{sa})
				if !ok {
					return nil, false
				}
				out = append(out, r...)
			default:
				rt, ok := ex.block(st.Then, []*state{sa.clone(ex)})
				if !ok {
					return nil, false
				}
				re, ok := ex.block(st.Else, []*state{sa})
				if !ok {
					return nil, false
				}
				out = append(out, rt...)
				out = append(out, re...)
			}
		}
		return ex.merge(out)
	case *ir.For:
		var out []*state
		for _, sa := range states {
			r, ok := ex.forStmt(st, sa)
			if !ok {
				return nil, false
			}
			out = append(out, r...)
		}
		return ex.merge(out)
	case *ir.While:
		var out []*state
		for _, sa := range states {
			r, ok := ex.whileStmt(st, sa)
			if !ok {
				return nil, false
			}
			out = append(out, r...)
		}
		return ex.merge(out)
	case *ir.Break:
		for _, sa := range states {
			sa.ctl = ctrlBreak
		}
		return states, true
	case *ir.Continue:
		for _, sa := range states {
			sa.ctl = ctrlContinue
		}
		return states, true
	}
	return states, true
}

// forStmt explores one counted loop from one entry state. A fully known
// header replays the interpreter's exact iteration sequence (local
// counter, float tolerance); anything else — unknown bounds, zero step,
// a sequence the interpreter would fault on — charges the loop's
// structural cost and forgets everything the body writes.
func (ex *explorer) forStmt(st *ir.For, sa *state) ([]*state, bool) {
	lo := ex.eval(st.Lo, sa)
	hi := ex.eval(st.Hi, sa)
	step := ex.eval(st.Step, sa)
	if !lo.known || !hi.known || !step.known || step.val == 0 ||
		forIters(lo.val, hi.val, step.val, st.Trip) > st.Trip {
		ex.structuralCharge(st, sa, append(scalarWrites(ex, st.Body), st.IVar))
		return []*state{sa}, true
	}
	sa.cycles += ex.m.StmtSelfCost(st)
	overhead := ex.m.LoopIterOverhead()
	ivar, tracked := ex.idx[st.IVar]
	active := []*state{sa}
	var done []*state
	for v := lo.val; (step.val > 0 && v <= hi.val+1e-12) || (step.val < 0 && v >= hi.val-1e-12); v += step.val {
		for _, a := range active {
			a.cycles += overhead
			if tracked {
				a.vals[ivar] = absVal{known: true, val: v}
			}
		}
		next, ok := ex.block(st.Body, active)
		if !ok {
			return nil, false
		}
		active = active[:0]
		for _, a := range next {
			switch a.ctl {
			case ctrlBreak:
				a.ctl = ctrlNone
				done = append(done, a)
			default:
				a.ctl = ctrlNone
				active = append(active, a)
			}
		}
		var mok bool
		active, mok = ex.merge(active)
		if !mok {
			return nil, false
		}
		if len(active) == 0 {
			break
		}
	}
	return append(done, active...), true
}

// forIters replays the interpreter's float iteration sequence without
// the body, capped at trip+1 (enough to detect the fault case).
func forIters(lo, hi, step float64, trip int) int {
	n := 0
	for v := lo; (step > 0 && v <= hi+1e-12) || (step < 0 && v >= hi-1e-12); v += step {
		n++
		if n > trip {
			break
		}
	}
	return n
}

// whileStmt explores one bounded loop from one entry state. Checks are
// charged per evaluation; a known-false condition exits (this is where
// the engine beats the structural bound, which always assumes @bound
// iterations); a condition that becomes unknown after k iterations
// charges the remaining worst case — (bound-k) bodies and checks at
// their structural cost — and forgets the body's scalar effects.
func (ex *explorer) whileStmt(st *ir.While, sa *state) ([]*state, bool) {
	check := ex.m.StmtSelfCost(st)
	bodyS := wcet.Structural(st.Body, ex.m)
	writes := scalarWrites(ex, st.Body)
	active := []*state{sa}
	var done []*state
	for k := 0; ; k++ {
		var iterate []*state
		for _, a := range active {
			a.cycles += check
			c := ex.eval(st.Cond, a)
			switch {
			case c.known && c.val == 0:
				done = append(done, a)
			case !c.known:
				a.cycles += int64(st.Bound-k) * (bodyS + check)
				ex.forget(a, writes)
				done = append(done, a)
			case k >= st.Bound:
				// The interpreter faults here; the path's cost so far is
				// already an upper bound for it.
				done = append(done, a)
			default:
				iterate = append(iterate, a)
			}
		}
		if len(iterate) == 0 {
			return done, true
		}
		next, ok := ex.block(st.Body, iterate)
		if !ok {
			return nil, false
		}
		active = active[:0]
		for _, a := range next {
			switch a.ctl {
			case ctrlBreak:
				a.ctl = ctrlNone
				done = append(done, a)
			default:
				a.ctl = ctrlNone
				active = append(active, a)
			}
		}
		var mok bool
		active, mok = ex.merge(active)
		if !mok {
			return nil, false
		}
		if len(active) == 0 {
			return done, true
		}
	}
}

// structuralCharge applies a per-statement fallback: the statement's
// structural worst case in cycles, with every scalar it may write
// forgotten.
func (ex *explorer) structuralCharge(s ir.Stmt, sa *state, writes []*ir.Var) {
	sa.cycles += wcet.Structural([]ir.Stmt{s}, ex.m)
	ex.forget(sa, writes)
}

func (ex *explorer) forget(sa *state, writes []*ir.Var) {
	for _, v := range writes {
		if i, ok := ex.idx[v]; ok {
			sa.vals[i] = absVal{}
		}
	}
}

// scalarWrites lists the tracked scalars a region may write.
func scalarWrites(ex *explorer, stmts []ir.Stmt) []*ir.Var {
	var out []*ir.Var
	ir.ComputeUses(stmts).ScalWrite().Each(func(v *ir.Var) bool {
		if _, ok := ex.idx[v]; ok {
			out = append(out, v)
		}
		return true
	})
	return out
}

// merge collapses states with identical valuations and control tags,
// keeping the maximum cycle count (first-seen order preserved).
func (ex *explorer) merge(states []*state) ([]*state, bool) {
	if len(states) <= 1 {
		return states, true
	}
	seen := make(map[string]*state, len(states))
	out := states[:0]
	key := make([]byte, 0, 9*len(ex.vars)+1)
	for _, s := range states {
		key = key[:0]
		for _, v := range s.vals {
			if v.known {
				key = append(key, 1)
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v.val))
			} else {
				key = append(key, 0)
			}
		}
		key = append(key, byte(s.ctl))
		if prev, ok := seen[string(key)]; ok {
			if s.cycles > prev.cycles {
				prev.cycles = s.cycles
			}
			continue
		}
		seen[string(key)] = s
		out = append(out, s)
	}
	if len(out) > ex.maxStates {
		return nil, false
	}
	return out, true
}

// --- abstract evaluation ----------------------------------------------------

// eval mirrors the interpreter's expression semantics over the flat
// constant domain: matrix loads are unknown, operators and the pure
// builtin intrinsics fold known operands exactly through ir.FoldBin,
// ir.FoldUn and scil.Builtin.Call, the definitions ir.Exec executes, so
// folded values are bit-identical to executed ones.
func (ex *explorer) eval(e ir.Expr, sa *state) absVal {
	switch x := e.(type) {
	case *ir.Const:
		return absVal{known: true, val: x.Val}
	case *ir.VarRef:
		if i, ok := ex.idx[x.V]; ok {
			return sa.vals[i]
		}
		return absVal{}
	case *ir.Index:
		return absVal{}
	case *ir.Bin:
		a := ex.eval(x.X, sa)
		b := ex.eval(x.Y, sa)
		if !a.known || !b.known {
			return absVal{}
		}
		return absVal{known: true, val: ir.FoldBin(x.Op, a.val, b.val)}
	case *ir.Un:
		a := ex.eval(x.X, sa)
		if !a.known {
			return absVal{}
		}
		return absVal{known: true, val: ir.FoldUn(x.Op, a.val)}
	case *ir.Intrinsic:
		b := scil.LookupBuiltin(x.Name)
		if b == nil {
			return absVal{}
		}
		args := make([]float64, len(x.Args))
		for i, arg := range x.Args {
			a := ex.eval(arg, sa)
			if !a.known {
				return absVal{}
			}
			args[i] = a.val
		}
		v, err := b.Call(args)
		if err != nil {
			return absVal{}
		}
		return absVal{known: true, val: v}
	}
	return absVal{}
}
