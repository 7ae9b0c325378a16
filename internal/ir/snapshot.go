package ir

// Remap-on-restore snapshot codec.
//
// Structural artifacts (task graphs, parallel programs) hold live *Var
// and Stmt pointers into one specific Program instance, which is what
// kept them out of the content-addressed pass cache: a pointer frozen
// against program A cannot be restored into program B. The codec fixes
// that by encoding pointers positionally — a *Var as its registration
// index in Program.Vars, a Stmt as its position in the deterministic
// WalkStmts traversal of the entry body — and rebuilding them against
// whatever program instance the restore side holds.
//
// Soundness: two programs with equal content fingerprints
// (wcet.FingerprintProgram covers the full Vars table in registration
// order and the entry body in traversal order) are structurally
// identical, so position i names "the same" variable or statement in
// both. Program.Clone preserves both orders, which is the same
// invariant the transform-pass snapshots have always relied on.
//
// SnapshotIndex is the freeze side (pointer -> index), SnapshotTable
// the thaw side (index -> pointer). Freeze-side lookups report ok=false
// for unregistered variables or statements outside the entry body, so
// callers can decline to cache rather than store an unrestorable form.

// SnapshotIndex maps one program's variables and statements to their
// positional encodings.
type SnapshotIndex struct {
	prog  *Program
	vars  map[*Var]int32
	stmts map[Stmt]int32
}

// NewSnapshotIndex builds the freeze-side index of p: variables by
// registration order, statements by WalkStmts traversal order over the
// entry body.
func NewSnapshotIndex(p *Program) *SnapshotIndex {
	si := &SnapshotIndex{
		prog:  p,
		vars:  make(map[*Var]int32, len(p.Vars)),
		stmts: make(map[Stmt]int32, 64),
	}
	for i, v := range p.Vars {
		si.vars[v] = int32(i)
	}
	n := int32(0)
	WalkStmts(p.Entry.Body, func(s Stmt) bool {
		si.stmts[s] = n
		n++
		return true
	})
	return si
}

// Program returns the indexed program.
func (si *SnapshotIndex) Program() *Program { return si.prog }

// Var returns v's registration index; ok is false for variables not in
// the program's Vars table.
func (si *SnapshotIndex) Var(v *Var) (int32, bool) {
	i, ok := si.vars[v]
	return i, ok
}

// Vars encodes a variable list; ok is false if any element is
// unregistered.
func (si *SnapshotIndex) Vars(vs []*Var) ([]int32, bool) {
	if vs == nil {
		return nil, true
	}
	out := make([]int32, len(vs))
	for i, v := range vs {
		j, ok := si.vars[v]
		if !ok {
			return nil, false
		}
		out[i] = j
	}
	return out, true
}

// Stmt returns s's traversal index; ok is false for statements outside
// the indexed entry body.
func (si *SnapshotIndex) Stmt(s Stmt) (int32, bool) {
	i, ok := si.stmts[s]
	return i, ok
}

// Stmts encodes a statement list; ok is false if any element is outside
// the indexed entry body.
func (si *SnapshotIndex) Stmts(ss []Stmt) ([]int32, bool) {
	if ss == nil {
		return nil, true
	}
	out := make([]int32, len(ss))
	for i, s := range ss {
		j, ok := si.stmts[s]
		if !ok {
			return nil, false
		}
		out[i] = j
	}
	return out, true
}

// SnapshotTable resolves positional encodings against one program's
// variables and statements (the thaw side of the codec).
type SnapshotTable struct {
	prog  *Program
	vars  []*Var
	stmts []Stmt
}

// NewSnapshotTable builds the thaw-side table of p, in the same orders
// NewSnapshotIndex encodes against.
func NewSnapshotTable(p *Program) *SnapshotTable {
	t := &SnapshotTable{prog: p, vars: p.Vars}
	t.stmts = make([]Stmt, 0, 64)
	WalkStmts(p.Entry.Body, func(s Stmt) bool {
		t.stmts = append(t.stmts, s)
		return true
	})
	return t
}

// Program returns the program the table resolves against.
func (t *SnapshotTable) Program() *Program { return t.prog }

// Var resolves a registration index.
func (t *SnapshotTable) Var(i int32) *Var { return t.vars[i] }

// Vars resolves a variable index list (nil for nil).
func (t *SnapshotTable) Vars(idx []int32) []*Var {
	if idx == nil {
		return nil
	}
	out := make([]*Var, len(idx))
	for i, j := range idx {
		out[i] = t.vars[j]
	}
	return out
}

// Stmt resolves a traversal index.
func (t *SnapshotTable) Stmt(i int32) Stmt { return t.stmts[i] }

// Stmts resolves a statement index list (nil for nil).
func (t *SnapshotTable) Stmts(idx []int32) []Stmt {
	if idx == nil {
		return nil
	}
	out := make([]Stmt, len(idx))
	for i, j := range idx {
		out[i] = t.stmts[j]
	}
	return out
}
