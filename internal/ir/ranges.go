package ir

import "math"

// Interval is a conservative integer value range; Lo > Hi encodes "no
// accesses" (empty).
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether the interval contains nothing.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Disjoint reports whether two non-empty intervals cannot overlap.
func (iv Interval) Disjoint(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return true
	}
	return iv.Hi < other.Lo || other.Hi < iv.Lo
}

func (iv Interval) union(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Lo: math.Min(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

var fullInterval = Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}

// AccessRange summarizes, per subscript dimension, the value range of all
// element accesses a region makes to one matrix variable. It is the basis
// of the interval dependence test: two regions are independent on v when
// some dimension's ranges are provably disjoint (e.g. two chunks of a
// parallelized loop writing rows 1..8 and 9..16).
type AccessRange struct {
	// Row and Col are the 2-D subscript ranges; linear (1-subscript)
	// accesses widen both.
	Row, Col Interval
	// Any is true if the region accesses v at all.
	Any bool
}

// DisjointFrom reports whether the two access sets cannot touch a common
// element.
func (a AccessRange) DisjointFrom(b AccessRange) bool {
	if !a.Any || !b.Any {
		return true
	}
	return a.Row.Disjoint(b.Row) || a.Col.Disjoint(b.Col)
}

// VarRange is one variable's access range in a region.
type VarRange struct {
	V *Var
	AccessRange
}

// AccessRanges lists a region's per-variable access ranges sorted by
// the variables' slots. Variables with equal slots (slot 0 for
// unregistered ones) keep their first-occurrence order.
type AccessRanges []VarRange

// find returns the position of v in rs, or where v would be inserted
// and false.
func (rs AccessRanges) find(v *Var) (int, bool) {
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].V.slot < v.slot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for ; lo < len(rs) && rs[lo].V.slot == v.slot; lo++ {
		if rs[lo].V == v {
			return lo, true
		}
	}
	return lo, false
}

// Get returns v's access range; the zero range (Any false) when the
// region does not access v.
func (rs AccessRanges) Get(v *Var) AccessRange {
	if i, ok := rs.find(v); ok {
		return rs[i].AccessRange
	}
	return AccessRange{}
}

// Union returns the ranges of the two regions run one after the other,
// as a new slice: per variable, the union of its ranges.
func (rs AccessRanges) Union(o AccessRanges) AccessRanges {
	if len(rs)+len(o) == 0 {
		return nil
	}
	out := make(AccessRanges, len(rs), len(rs)+len(o))
	copy(out, rs)
	for _, r := range o {
		out.add(r.V, r.AccessRange)
	}
	return out
}

// add unites r into v's range, inserting v in slot order if it is new.
func (rs *AccessRanges) add(v *Var, r AccessRange) {
	i, ok := rs.find(v)
	if ok {
		(*rs)[i].AccessRange = (*rs)[i].union(r)
		return
	}
	*rs = append(*rs, VarRange{})
	copy((*rs)[i+1:], (*rs)[i:])
	(*rs)[i] = VarRange{V: v, AccessRange: r}
}

func (a AccessRange) union(b AccessRange) AccessRange {
	return AccessRange{Row: a.Row.union(b.Row), Col: a.Col.union(b.Col), Any: a.Any || b.Any}
}

// ivarBound is the constant value range of an induction variable in
// scope; a scope is a stack of them, innermost last.
type ivarBound struct {
	v  *Var
	iv Interval
}

// exprInterval evaluates a conservative value range of an index
// expression given the loop bounds in scope.
func exprInterval(e Expr, scope []ivarBound) Interval {
	switch x := e.(type) {
	case *Const:
		return Interval{Lo: x.Val, Hi: x.Val}
	case *VarRef:
		for i := len(scope) - 1; i >= 0; i-- {
			if scope[i].v == x.V {
				return scope[i].iv
			}
		}
		return fullInterval
	case *Bin:
		a := exprInterval(x.X, scope)
		b := exprInterval(x.Y, scope)
		switch x.Op {
		case OpAdd:
			return Interval{Lo: a.Lo + b.Lo, Hi: a.Hi + b.Hi}
		case OpSub:
			return Interval{Lo: a.Lo - b.Hi, Hi: a.Hi - b.Lo}
		case OpMul:
			// Only the common positive-constant scaling case is refined.
			if c, ok := x.Y.(*Const); ok && c.Val >= 0 {
				return Interval{Lo: a.Lo * c.Val, Hi: a.Hi * c.Val}
			}
			if c, ok := x.X.(*Const); ok && c.Val >= 0 {
				return Interval{Lo: b.Lo * c.Val, Hi: b.Hi * c.Val}
			}
			return fullInterval
		}
		return fullInterval
	}
	return fullInterval
}

// CollectAccessRanges computes per-variable access ranges of a region.
// Every access widens its variable's range by union, so the ranges of a
// concatenation are the Union of its parts' ranges.
func CollectAccessRanges(stmts []Stmt) AccessRanges {
	c := rangeCollector{}
	c.stmts(stmts)
	return c.out
}

type rangeCollector struct {
	out   AccessRanges
	scope []ivarBound
}

func (c *rangeCollector) record(v *Var, idx []Expr) {
	r := AccessRange{Row: fullInterval, Col: fullInterval, Any: true}
	if len(idx) == 2 {
		r.Row = exprInterval(idx[0], c.scope)
		r.Col = exprInterval(idx[1], c.scope)
	}
	c.out.add(v, r)
}

func (c *rangeCollector) expr(e Expr) {
	WalkExprs(e, func(sub Expr) {
		if ix, ok := sub.(*Index); ok {
			c.record(ix.V, ix.Idx)
		}
	})
}

func (c *rangeCollector) stmts(stmts []Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignScalar:
			c.expr(st.Src)
		case *Store:
			for _, ix := range st.Idx {
				c.expr(ix)
			}
			c.expr(st.Src)
			c.record(st.Dst, st.Idx)
		case *If:
			c.expr(st.Cond)
			c.stmts(st.Then)
			c.stmts(st.Else)
		case *While:
			c.expr(st.Cond)
			c.stmts(st.Body)
		case *For:
			c.expr(st.Lo)
			c.expr(st.Step)
			c.expr(st.Hi)
			iv := exprInterval(st.Lo, c.scope).union(exprInterval(st.Hi, c.scope))
			c.scope = append(c.scope, ivarBound{v: st.IVar, iv: iv})
			c.stmts(st.Body)
			c.scope = c.scope[:len(c.scope)-1]
		}
	}
}
