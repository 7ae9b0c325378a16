package ir

import "math/bits"

// VarSet is a set of variables held as a bitset over the slots of one
// program's Vars table (bit i is the variable at slot i+1), so
// membership, union and intersection are word operations, and
// iteration runs in slot order.
//
// The bitset is sized to the program's table when the set is built. A
// member the bits cannot hold, an unregistered variable or one
// registered after the set was built, is kept exactly in a short list
// beside the bits, in insertion order; the list is allocated only when
// such a member occurs. Every member has one place.
//
// The zero VarSet is empty. A built set is never changed in place:
// sets share their words (task-graph clones and thawed snapshots alias
// them), and UseSets.Union builds new ones.
type VarSet struct {
	prog  *Program
	bits  []uint64
	extra []*Var
}

// NewVarSet returns an empty set sized to p's table, for a caller to
// fill with Add before it shares the set.
func NewVarSet(p *Program) VarSet {
	return VarSet{prog: p, bits: make([]uint64, wordsFor(p))}
}

// Add inserts v into a set its caller built and has not shared.
func (s *VarSet) Add(v *Var) { s.add(v) }

// wordsFor returns the words a bitset over p's current table needs.
func wordsFor(p *Program) int {
	if p == nil {
		return 0
	}
	return (len(p.Vars) + 63) >> 6
}

// index returns v's bit, or -1 when v has no slot in the set's bits.
func (s *VarSet) index(v *Var) int {
	if v.owner == nil || v.owner != s.prog {
		return -1
	}
	if i := v.slot - 1; i < len(s.bits)<<6 {
		return i
	}
	return -1
}

func (s *VarSet) bit(i int) bool { return s.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// add inserts v into a set under construction.
func (s *VarSet) add(v *Var) {
	if i := s.index(v); i >= 0 {
		s.bits[i>>6] |= 1 << (uint(i) & 63)
		return
	}
	if !s.hasExtra(v) {
		s.extra = append(s.extra, v)
	}
}

func (s *VarSet) hasExtra(v *Var) bool {
	for _, x := range s.extra {
		if x == v {
			return true
		}
	}
	return false
}

// Has reports whether v is in the set. A variable registered after it
// entered the set sits in the list although its slot fits the bits.
func (s VarSet) Has(v *Var) bool {
	if i := s.index(v); i >= 0 && s.bit(i) {
		return true
	}
	return s.hasExtra(v)
}

// Len returns the number of members.
func (s VarSet) Len() int {
	n := len(s.extra)
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s VarSet) Empty() bool {
	if len(s.extra) > 0 {
		return false
	}
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Each calls fn for every member, in slot order and then the members
// without a slot in insertion order, until fn returns false. It reports
// whether the walk finished.
func (s VarSet) Each(fn func(*Var) bool) bool {
	for k, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			if !fn(s.prog.Vars[k<<6|bits.TrailingZeros64(w)]) {
				return false
			}
		}
	}
	for _, v := range s.extra {
		if !fn(v) {
			return false
		}
	}
	return true
}

// EachCommon calls fn for every member of both s and o, in s's Each
// order, until fn returns false. It reports whether the walk finished.
func (s VarSet) EachCommon(o VarSet, fn func(*Var) bool) bool {
	if s.prog != o.prog {
		return s.Each(func(v *Var) bool { return !o.Has(v) || fn(v) })
	}
	n := min(len(s.bits), len(o.bits))
	for k := 0; k < n; k++ {
		for w := s.bits[k] & o.bits[k]; w != 0; w &= w - 1 {
			if !fn(s.prog.Vars[k<<6|bits.TrailingZeros64(w)]) {
				return false
			}
		}
	}
	// Over one program, a member in the bits of one set may sit in the
	// other's list only when the other's bits are shorter.
	for _, v := range o.extra {
		if i := s.index(v); i >= 0 && s.bit(i) && !fn(v) {
			return false
		}
	}
	for _, v := range s.extra {
		if o.Has(v) && !fn(v) {
			return false
		}
	}
	return true
}

// unionInto fills out, whose bits are zero or nil, with s ∪ o. Over
// one program the words are ORed; members the bits cannot hold go
// through add, which places them canonically.
func unionInto(out *VarSet, s, o VarSet) {
	if out.bits == nil {
		w := max(len(s.bits), len(o.bits))
		if w > 0 {
			out.bits = make([]uint64, w)
		}
	}
	if out.prog == nil {
		out.prog = s.prog
		if out.prog == nil {
			out.prog = o.prog
		}
	}
	for _, in := range [2]VarSet{s, o} {
		if in.prog == out.prog {
			for k, w := range in.bits {
				out.bits[k] |= w
			}
			for _, v := range in.extra {
				out.add(v)
			}
			continue
		}
		in.Each(func(v *Var) bool {
			out.add(v)
			return true
		})
	}
}
