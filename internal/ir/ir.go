// Package ir defines the ARGO intermediate representation: a structured,
// fully monomorphic imperative program over float64 scalars and
// statically-shaped dense matrices.
//
// The IR is produced by lowering a scil program for one entry point
// (package-level function Lower). Lowering
//
//   - resolves every matrix shape to compile-time constants,
//   - inlines every user-function call (the call graph is acyclic),
//   - scalarizes matrix operations into explicit loops, so every memory
//     access in the IR is an element load or store with index expressions,
//   - derives a static trip count for every for loop and takes while-loop
//     bounds from //@bound pragmas.
//
// These properties are exactly what the downstream stages need: the WCET
// analyses (internal/wcet, internal/syswcet) see every loop bound and
// every shared-memory access statically; the task extractor (internal/htg)
// computes read/write sets per statement region; the transformation engine
// (internal/transform) rewrites loops structurally.
package ir

import (
	"fmt"
	"strconv"
	"sync"
)

// Storage classifies where a variable lives on the target.
type Storage int

// Storage classes.
const (
	// StorageReg is a core-private register: scalar values, free to access.
	StorageReg Storage = iota
	// StorageShared is the shared global memory: the default home of all
	// matrix data; accesses are shared-resource accesses for WCET.
	StorageShared
	// StorageSPM is the core-local scratchpad memory; accesses have a
	// small fixed latency and do not contend.
	StorageSPM
)

// String returns the storage class name.
func (s Storage) String() string {
	switch s {
	case StorageReg:
		return "reg"
	case StorageShared:
		return "shared"
	case StorageSPM:
		return "spm"
	}
	return fmt.Sprintf("storage(%d)", int(s))
}

// Var is an IR variable: a scalar register or a statically-shaped matrix
// buffer.
type Var struct {
	Name       string
	Rows, Cols int
	Scalar     bool
	Storage    Storage
	Param      bool
	Result     bool

	// tempOwner marks a lowering temporary that no source name refers to
	// yet; such values can be adopted by an assignment without a copy.
	tempOwner bool

	// slot is the 1-based index of the variable in its program's Vars
	// table (0 = unregistered) and owner is that program, so
	// owner.Vars[slot-1] is the variable itself. The interpreter, the
	// use sets and the fingerprints use them for dense, map-free
	// indexing: a slot is trusted exactly when owner matches the
	// program at hand (one pointer compare), falling back to a map or a
	// list for foreign variables. Clone re-owns the copied variables,
	// which keep the Vars order.
	slot  int
	owner *Program
}

// Slot returns the program whose Vars table registers v and v's 1-based
// index in it: owner.Vars[slot-1] == v. An unregistered variable
// returns nil, 0.
func (v *Var) Slot() (owner *Program, slot int) { return v.owner, v.slot }

// Elems returns the number of float64 elements the variable holds.
func (v *Var) Elems() int {
	if v.Scalar {
		return 1
	}
	return v.Rows * v.Cols
}

// SizeBytes returns the variable's memory footprint (8 bytes/element).
func (v *Var) SizeBytes() int { return v.Elems() * 8 }

// String renders the variable with its shape and storage.
func (v *Var) String() string { return string(appendVar(nil, v)) }

// BinOp enumerates binary scalar operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "^", "==", "~=", "<", "<=", ">", ">=", "&", "|"}

// String returns the operator's surface syntax.
func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNeg UnOp = iota
	OpNot
)

// String returns the operator's surface syntax.
func (op UnOp) String() string {
	if op == OpNeg {
		return "-"
	}
	return "~"
}

// Expr is a pure scalar expression.
type Expr interface {
	irExpr()
}

// Const is a literal value.
type Const struct{ Val float64 }

// VarRef reads a scalar register variable.
type VarRef struct{ V *Var }

// Index reads one matrix element. Idx holds 1 or 2 scalar index
// expressions (1-based; a single index is Scilab column-major linear
// indexing).
type Index struct {
	V   *Var
	Idx []Expr
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	X, Y Expr
}

// Un applies a unary operator.
type Un struct {
	Op UnOp
	X  Expr
}

// Intrinsic calls a scalar builtin (abs, sqrt, sin, ... from the scil
// builtin table) on scalar arguments.
type Intrinsic struct {
	Name string
	Args []Expr
}

func (*Const) irExpr()     {}
func (*VarRef) irExpr()    {}
func (*Index) irExpr()     {}
func (*Bin) irExpr()       {}
func (*Un) irExpr()        {}
func (*Intrinsic) irExpr() {}

// Stmt is a structured statement.
type Stmt interface {
	irStmt()
}

// AssignScalar writes a scalar register.
type AssignScalar struct {
	Dst *Var
	Src Expr

	units int32 // memoized per-execution ALU charge (0 = unannotated)
}

// Store writes one matrix element; Idx as in Index.
type Store struct {
	Dst *Var
	Idx []Expr
	Src Expr

	units int32 // memoized per-execution ALU charge (0 = unannotated)
}

// For is a counted loop. Lo/Step/Hi are scalar expressions evaluated once
// on entry; Trip is the statically-derived worst-case trip count used by
// every analysis. IVar is the induction variable (a scalar register).
type For struct {
	IVar         *Var
	Lo, Step, Hi Expr
	Trip         int
	Body         []Stmt
	// Label optionally names the loop for reports and transformations.
	Label string

	units int32 // memoized loop-entry ALU charge (0 = unannotated)
}

// While is a bounded condition-controlled loop; Bound comes from the
// //@bound pragma and upper-bounds the iteration count.
type While struct {
	Cond  Expr
	Bound int
	Body  []Stmt

	units int32 // memoized per-check ALU charge (0 = unannotated)
}

// If branches on a scalar condition (nonzero = true).
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt

	units int32 // memoized per-check ALU charge (0 = unannotated)
}

// Break exits the innermost enclosing loop.
type Break struct{}

// Continue proceeds to the next iteration of the innermost loop.
type Continue struct{}

func (*AssignScalar) irStmt() {}
func (*Store) irStmt()        {}
func (*For) irStmt()          {}
func (*While) irStmt()        {}
func (*If) irStmt()           {}
func (*Break) irStmt()        {}
func (*Continue) irStmt()     {}

// Func is the single fully-inlined entry function of an IR program.
type Func struct {
	Name    string
	Params  []*Var
	Results []*Var
	Body    []Stmt
}

// Program is an IR compilation unit: one entry function plus the table of
// all variables (registers and matrix buffers) it uses.
type Program struct {
	Entry *Func
	Vars  []*Var

	nextTemp int
	// unitsDone records that AnnotateOpUnits already ran (guarded by
	// annotateMu; a plain bool keeps Program copyable by value).
	unitsDone bool
}

// annotateMu serializes AnnotateOpUnits across programs; the one-shot
// walk is far off any hot path.
var annotateMu sync.Mutex

// AnnotateOpUnits precomputes the per-execution ALU charge of every
// statement in the program (see ExprOpUnits), so metered interpretation
// reads a field instead of walking expression trees. Call it only once
// the program is final — structural rewrites after annotation would
// leave stale charges. Repeated and concurrent calls are safe, and the
// mutex publication makes the annotations visible to every caller that
// passed through it; clones start unannotated.
func (p *Program) AnnotateOpUnits() {
	annotateMu.Lock()
	defer annotateMu.Unlock()
	if p.unitsDone {
		return
	}
	p.unitsDone = true
	WalkStmts(p.Entry.Body, func(s Stmt) bool {
		switch st := s.(type) {
		case *AssignScalar:
			st.units = int32(ExprOpUnits(st.Src)) + 1
		case *Store:
			u := 1 + ExprOpUnits(st.Src)
			for _, ix := range st.Idx {
				u += ExprOpUnits(ix)
			}
			st.units = int32(u)
		case *While:
			st.units = int32(ExprOpUnits(st.Cond)) + 1
		case *If:
			st.units = int32(ExprOpUnits(st.Cond)) + 1
		case *For:
			st.units = int32(ExprOpUnits(st.Lo) + ExprOpUnits(st.Hi) + ExprOpUnits(st.Step))
		}
		return true
	})
}

// NewVar registers a new variable in the program. Names must be unique;
// use FreshVar for generated temporaries.
func (p *Program) NewVar(v *Var) *Var {
	p.Vars = append(p.Vars, v)
	v.slot = len(p.Vars)
	v.owner = p
	return v
}

// FreshVar creates a uniquely-named variable with the given prefix.
func (p *Program) FreshVar(prefix string, rows, cols int, scalar bool) *Var {
	p.nextTemp++
	v := &Var{
		Name:   fmt.Sprintf("%s_t%d", prefix, p.nextTemp),
		Rows:   rows,
		Cols:   cols,
		Scalar: scalar,
	}
	if !scalar {
		v.Storage = StorageShared
	}
	return p.NewVar(v)
}

// TempSeq returns the temporary-name counter FreshVar draws from.
// Content-addressed program fingerprints must include it: transforms
// generate variable names from the counter, so two structurally equal
// programs with different counters produce differently-named rewrites.
func (p *Program) TempSeq() int { return p.nextTemp }

// VarByName returns the variable with the given name, or nil.
func (p *Program) VarByName(name string) *Var {
	for _, v := range p.Vars {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// MatrixVars returns all matrix (memory-resident) variables.
func (p *Program) MatrixVars() []*Var {
	var out []*Var
	for _, v := range p.Vars {
		if !v.Scalar {
			out = append(out, v)
		}
	}
	return out
}

// TotalDataBytes sums the memory footprint of all matrix variables.
func (p *Program) TotalDataBytes() int {
	n := 0
	for _, v := range p.MatrixVars() {
		n += v.SizeBytes()
	}
	return n
}

// --- pretty printing -------------------------------------------------------

// Dump renders the program as pseudo-code for debugging and golden tests.
func (p *Program) Dump() string { return string(p.AppendDump(nil)) }

// AppendDump appends Dump's rendering of the program to buf and returns
// the extended buffer. It formats numbers with strconv, not fmt, so a
// caller that reuses buf (the result fingerprint hashes every compiled
// program's dump) renders without allocating.
func (p *Program) AppendDump(buf []byte) []byte {
	f := p.Entry
	buf = append(buf, "func "...)
	buf = append(buf, f.Name...)
	buf = append(buf, '(')
	buf = appendVarList(buf, f.Params)
	buf = append(buf, ") -> ("...)
	buf = appendVarList(buf, f.Results)
	buf = append(buf, ")\n"...)
	return appendBlock(buf, f.Body, 1)
}

func appendVarList(buf []byte, vs []*Var) []byte {
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendVar(buf, v)
	}
	return buf
}

func appendVar(buf []byte, v *Var) []byte {
	buf = append(buf, v.Name...)
	if v.Scalar {
		return append(buf, ":scalar"...)
	}
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(v.Rows), 10)
	buf = append(buf, 'x')
	buf = strconv.AppendInt(buf, int64(v.Cols), 10)
	buf = append(buf, '@')
	return append(buf, v.Storage.String()...)
}

func appendIndent(buf []byte, n int) []byte {
	for i := 0; i < n; i++ {
		buf = append(buf, "  "...)
	}
	return buf
}

func appendBlock(buf []byte, stmts []Stmt, depth int) []byte {
	for _, s := range stmts {
		buf = appendStmt(buf, s, depth)
	}
	return buf
}

func appendEnd(buf []byte, depth int) []byte {
	return append(appendIndent(buf, depth), "end\n"...)
}

func appendStmt(buf []byte, s Stmt, depth int) []byte {
	buf = appendIndent(buf, depth)
	switch st := s.(type) {
	case *AssignScalar:
		buf = append(buf, st.Dst.Name...)
		buf = append(buf, " = "...)
		buf = appendExpr(buf, st.Src)
		return append(buf, '\n')
	case *Store:
		buf = append(buf, st.Dst.Name...)
		buf = append(buf, '[')
		buf = appendExprList(buf, st.Idx)
		buf = append(buf, "] = "...)
		buf = appendExpr(buf, st.Src)
		return append(buf, '\n')
	case *For:
		buf = append(buf, "for "...)
		buf = append(buf, st.IVar.Name...)
		buf = append(buf, " = "...)
		buf = appendExpr(buf, st.Lo)
		buf = append(buf, " : "...)
		buf = appendExpr(buf, st.Step)
		buf = append(buf, " : "...)
		buf = appendExpr(buf, st.Hi)
		buf = append(buf, " (trip "...)
		buf = strconv.AppendInt(buf, int64(st.Trip), 10)
		buf = append(buf, ")\n"...)
		buf = appendBlock(buf, st.Body, depth+1)
		return appendEnd(buf, depth)
	case *While:
		buf = append(buf, "while "...)
		buf = appendExpr(buf, st.Cond)
		buf = append(buf, " (bound "...)
		buf = strconv.AppendInt(buf, int64(st.Bound), 10)
		buf = append(buf, ")\n"...)
		buf = appendBlock(buf, st.Body, depth+1)
		return appendEnd(buf, depth)
	case *If:
		buf = append(buf, "if "...)
		buf = appendExpr(buf, st.Cond)
		buf = append(buf, '\n')
		buf = appendBlock(buf, st.Then, depth+1)
		if len(st.Else) > 0 {
			buf = append(appendIndent(buf, depth), "else\n"...)
			buf = appendBlock(buf, st.Else, depth+1)
		}
		return appendEnd(buf, depth)
	case *Break:
		return append(buf, "break\n"...)
	case *Continue:
		return append(buf, "continue\n"...)
	}
	return fmt.Appendf(buf, "?stmt %T\n", s)
}

func appendExprList(buf []byte, es []Expr) []byte {
	for i, e := range es {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendExpr(buf, e)
	}
	return buf
}

// ExprString renders an expression as pseudo-code.
func ExprString(e Expr) string { return string(appendExpr(nil, e)) }

func appendExpr(buf []byte, e Expr) []byte {
	switch x := e.(type) {
	case *Const:
		// 'g' with the shortest precision is exactly fmt's %g.
		return strconv.AppendFloat(buf, x.Val, 'g', -1, 64)
	case *VarRef:
		return append(buf, x.V.Name...)
	case *Index:
		buf = append(buf, x.V.Name...)
		buf = append(buf, '[')
		buf = appendExprList(buf, x.Idx)
		return append(buf, ']')
	case *Bin:
		buf = append(buf, '(')
		buf = appendExpr(buf, x.X)
		buf = append(buf, ' ')
		buf = append(buf, x.Op.String()...)
		buf = append(buf, ' ')
		buf = appendExpr(buf, x.Y)
		return append(buf, ')')
	case *Un:
		buf = append(buf, x.Op.String()...)
		return appendExpr(buf, x.X)
	case *Intrinsic:
		buf = append(buf, x.Name...)
		buf = append(buf, '(')
		buf = appendExprList(buf, x.Args)
		return append(buf, ')')
	case nil:
		return append(buf, "<nil>"...)
	}
	return fmt.Appendf(buf, "?expr %T", e)
}

// --- structural helpers ----------------------------------------------------

// WalkStmts calls fn for every statement in stmts, recursively, in program
// order. If fn returns false the walk stops.
func WalkStmts(stmts []Stmt, fn func(Stmt) bool) bool {
	for _, s := range stmts {
		if !fn(s) {
			return false
		}
		switch st := s.(type) {
		case *For:
			if !WalkStmts(st.Body, fn) {
				return false
			}
		case *While:
			if !WalkStmts(st.Body, fn) {
				return false
			}
		case *If:
			if !WalkStmts(st.Then, fn) {
				return false
			}
			if !WalkStmts(st.Else, fn) {
				return false
			}
		}
	}
	return true
}

// WalkExprs calls fn for every sub-expression of e in evaluation order.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Bin:
		WalkExprs(x.X, fn)
		WalkExprs(x.Y, fn)
	case *Un:
		WalkExprs(x.X, fn)
	case *Index:
		for _, ix := range x.Idx {
			WalkExprs(ix, fn)
		}
	case *Intrinsic:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	}
}

// StmtExprs returns the expressions directly evaluated by s (not
// recursing into nested statements).
func StmtExprs(s Stmt) []Expr {
	switch st := s.(type) {
	case *AssignScalar:
		return []Expr{st.Src}
	case *Store:
		out := append([]Expr{}, st.Idx...)
		return append(out, st.Src)
	case *For:
		return []Expr{st.Lo, st.Step, st.Hi}
	case *While:
		return []Expr{st.Cond}
	case *If:
		return []Expr{st.Cond}
	}
	return nil
}

// CloneStmts deep-copies a statement list. Variables are shared (they are
// identities), structure is copied, so transformations can rewrite bodies
// without aliasing surprises.
func CloneStmts(stmts []Stmt) []Stmt {
	return cloneStmtsRemap(stmts, nil)
}

// CloneStmt deep-copies one statement (variables shared).
func CloneStmt(s Stmt) Stmt {
	return cloneStmtRemap(s, nil)
}

// cloneStmtsRemap deep-copies a statement list; mv (when non-nil) remaps
// every variable identity onto its replacement.
func cloneStmtsRemap(stmts []Stmt, mv func(*Var) *Var) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = cloneStmtRemap(s, mv)
	}
	return out
}

func cloneStmtRemap(s Stmt, mv func(*Var) *Var) Stmt {
	rv := func(v *Var) *Var {
		if mv == nil {
			return v
		}
		return mv(v)
	}
	switch st := s.(type) {
	case *AssignScalar:
		return &AssignScalar{Dst: rv(st.Dst), Src: cloneExprRemap(st.Src, mv)}
	case *Store:
		return &Store{Dst: rv(st.Dst), Idx: cloneExprsRemap(st.Idx, mv), Src: cloneExprRemap(st.Src, mv)}
	case *For:
		return &For{
			IVar: rv(st.IVar), Lo: cloneExprRemap(st.Lo, mv), Step: cloneExprRemap(st.Step, mv),
			Hi: cloneExprRemap(st.Hi, mv), Trip: st.Trip, Body: cloneStmtsRemap(st.Body, mv),
			Label: st.Label,
		}
	case *While:
		return &While{Cond: cloneExprRemap(st.Cond, mv), Bound: st.Bound, Body: cloneStmtsRemap(st.Body, mv)}
	case *If:
		return &If{Cond: cloneExprRemap(st.Cond, mv), Then: cloneStmtsRemap(st.Then, mv), Else: cloneStmtsRemap(st.Else, mv)}
	case *Break:
		return &Break{}
	case *Continue:
		return &Continue{}
	}
	panic(fmt.Sprintf("ir.CloneStmt: unknown statement %T", s))
}

func cloneExprs(es []Expr) []Expr {
	return cloneExprsRemap(es, nil)
}

func cloneExprsRemap(es []Expr, mv func(*Var) *Var) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = cloneExprRemap(e, mv)
	}
	return out
}

// CloneExpr deep-copies an expression (variables shared).
func CloneExpr(e Expr) Expr {
	return cloneExprRemap(e, nil)
}

func cloneExprRemap(e Expr, mv func(*Var) *Var) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Const:
		c := *x
		return &c
	case *VarRef:
		r := *x
		if mv != nil {
			r.V = mv(r.V)
		}
		return &r
	case *Index:
		v := x.V
		if mv != nil {
			v = mv(v)
		}
		return &Index{V: v, Idx: cloneExprsRemap(x.Idx, mv)}
	case *Bin:
		return &Bin{Op: x.Op, X: cloneExprRemap(x.X, mv), Y: cloneExprRemap(x.Y, mv)}
	case *Un:
		return &Un{Op: x.Op, X: cloneExprRemap(x.X, mv)}
	case *Intrinsic:
		return &Intrinsic{Name: x.Name, Args: cloneExprsRemap(x.Args, mv)}
	}
	panic(fmt.Sprintf("ir.CloneExpr: unknown expression %T", e))
}

// Clone deep-copies the whole program: fresh Var objects, a fresh entry
// function whose body remaps every variable reference onto the copies,
// and the temporary-name counter carried over. Mutations of the clone —
// storage (re)assignment by buffer placement, structural rewrites by the
// transformation engine — never touch the receiver, which is what lets
// one lowered front-end result feed many back-end runs (the iterative
// optimizer compiles every candidate from the same pristine IR).
func (p *Program) Clone() *Program {
	out := &Program{nextTemp: p.nextTemp}
	vmap := make(map[*Var]*Var, len(p.Vars))
	out.Vars = make([]*Var, len(p.Vars))
	for i, v := range p.Vars {
		c := *v
		c.owner = out // the copy keeps v's slot, which indexes out.Vars
		out.Vars[i] = &c
		vmap[v] = &c
	}
	mv := func(v *Var) *Var {
		if v == nil {
			return nil
		}
		if c, ok := vmap[v]; ok {
			return c
		}
		// A variable referenced by the body but absent from Vars: copy
		// it once so aliasing inside the clone mirrors the original.
		// No table holds the copy, so it keeps no slot.
		c := *v
		c.slot, c.owner = 0, nil
		vmap[v] = &c
		return &c
	}
	f := &Func{
		Name:    p.Entry.Name,
		Params:  make([]*Var, len(p.Entry.Params)),
		Results: make([]*Var, len(p.Entry.Results)),
	}
	for i, v := range p.Entry.Params {
		f.Params[i] = mv(v)
	}
	for i, v := range p.Entry.Results {
		f.Results[i] = mv(v)
	}
	f.Body = cloneStmtsRemap(p.Entry.Body, mv)
	out.Entry = f
	return out
}

// SubstituteVar returns e with every VarRef to v replaced by repl.
// Index bases are not substituted (v is assumed scalar).
func SubstituteVar(e Expr, v *Var, repl Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Const:
		return x
	case *VarRef:
		if x.V == v {
			return CloneExpr(repl)
		}
		return x
	case *Index:
		idx := make([]Expr, len(x.Idx))
		for i, ix := range x.Idx {
			idx[i] = SubstituteVar(ix, v, repl)
		}
		return &Index{V: x.V, Idx: idx}
	case *Bin:
		return &Bin{Op: x.Op, X: SubstituteVar(x.X, v, repl), Y: SubstituteVar(x.Y, v, repl)}
	case *Un:
		return &Un{Op: x.Op, X: SubstituteVar(x.X, v, repl)}
	case *Intrinsic:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = SubstituteVar(a, v, repl)
		}
		return &Intrinsic{Name: x.Name, Args: args}
	}
	panic(fmt.Sprintf("ir.SubstituteVar: unknown expression %T", e))
}

// SubstituteVarStmts applies SubstituteVar across a statement list in place
// of expressions (returns a rewritten deep copy).
func SubstituteVarStmts(stmts []Stmt, v *Var, repl Expr) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = substituteVarStmt(s, v, repl)
	}
	return out
}

func substituteVarStmt(s Stmt, v *Var, repl Expr) Stmt {
	switch st := s.(type) {
	case *AssignScalar:
		return &AssignScalar{Dst: st.Dst, Src: SubstituteVar(st.Src, v, repl)}
	case *Store:
		idx := make([]Expr, len(st.Idx))
		for i, ix := range st.Idx {
			idx[i] = SubstituteVar(ix, v, repl)
		}
		return &Store{Dst: st.Dst, Idx: idx, Src: SubstituteVar(st.Src, v, repl)}
	case *For:
		return &For{
			IVar:  st.IVar,
			Lo:    SubstituteVar(st.Lo, v, repl),
			Step:  SubstituteVar(st.Step, v, repl),
			Hi:    SubstituteVar(st.Hi, v, repl),
			Trip:  st.Trip,
			Body:  SubstituteVarStmts(st.Body, v, repl),
			Label: st.Label,
		}
	case *While:
		return &While{Cond: SubstituteVar(st.Cond, v, repl), Bound: st.Bound, Body: SubstituteVarStmts(st.Body, v, repl)}
	case *If:
		return &If{
			Cond: SubstituteVar(st.Cond, v, repl),
			Then: SubstituteVarStmts(st.Then, v, repl),
			Else: SubstituteVarStmts(st.Else, v, repl),
		}
	case *Break:
		return &Break{}
	case *Continue:
		return &Continue{}
	}
	panic(fmt.Sprintf("ir.substituteVarStmt: unknown statement %T", s))
}
