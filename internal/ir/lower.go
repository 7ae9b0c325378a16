package ir

import (
	"fmt"
	"math"

	"argo/internal/scil"
)

// ArgSpec describes one entry-point argument for lowering. Shapes must be
// compile-time constants; scalar arguments may additionally carry a known
// constant value (Const), which enables static loop bounds derived from
// them (specialization).
type ArgSpec struct {
	Rows, Cols int
	Scalar     bool
	Const      *float64
}

// ScalarArg describes a runtime scalar argument.
func ScalarArg() ArgSpec { return ArgSpec{Rows: 1, Cols: 1, Scalar: true} }

// ConstArg describes a scalar argument specialized to a known constant.
func ConstArg(v float64) ArgSpec {
	return ArgSpec{Rows: 1, Cols: 1, Scalar: true, Const: &v}
}

// MatrixArg describes a rows x cols matrix argument.
func MatrixArg(rows, cols int) ArgSpec { return ArgSpec{Rows: rows, Cols: cols} }

// Lower compiles the scil entry function (and transitively everything it
// calls, fully inlined) into an IR program. The scil program must already
// pass scil.Check in WCET mode.
func Lower(prog *scil.Program, entry string, args []ArgSpec) (*Program, error) {
	f := prog.Func(entry)
	if f == nil {
		return nil, fmt.Errorf("ir: entry function %q not found", entry)
	}
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("ir: entry %q has %d parameters, got %d arg specs", entry, len(f.Params), len(args))
	}
	lo := &lowerer{
		src: prog,
		out: &Program{},
	}
	lo.out.Entry = &Func{Name: entry}
	frame := lo.newFrame()
	for i, pname := range f.Params {
		spec := args[i]
		v := &Var{Name: lo.unique(pname), Scalar: spec.Scalar, Rows: spec.Rows, Cols: spec.Cols, Param: true}
		if spec.Scalar {
			v.Rows, v.Cols = 1, 1
			v.Storage = StorageReg
		} else {
			v.Storage = StorageShared
		}
		lo.out.NewVar(v)
		b := &binding{v: v}
		if spec.Const != nil {
			if !spec.Scalar {
				return nil, fmt.Errorf("ir: constant arg spec only valid for scalars (param %q)", pname)
			}
			c := *spec.Const
			b.cval = &c
		}
		frame.vars[pname] = b
		lo.out.Entry.Params = append(lo.out.Entry.Params, v)
	}
	body := &[]Stmt{}
	lo.blocks = append(lo.blocks, body)
	if err := lo.stmts(f.Body, frame, true); err != nil {
		return nil, err
	}
	lo.out.Entry.Body = *body
	for _, rname := range f.Results {
		b, ok := frame.vars[rname]
		if !ok {
			return nil, fmt.Errorf("ir: entry result %q never assigned", rname)
		}
		b.v.Result = true
		lo.out.Entry.Results = append(lo.out.Entry.Results, b.v)
	}
	return lo.out, nil
}

// binding associates a scil variable name with its IR variable and, for
// scalars, an optional compile-time constant value.
type binding struct {
	v    *Var
	cval *float64
}

// frame is one (inlined) function activation during lowering.
type frame struct {
	vars map[string]*binding
}

// operand is the result of lowering an expression: either a scalar
// expression (expr != nil, possibly with a known constant) or a matrix
// variable.
type operand struct {
	expr Expr
	cval *float64
	mvar *Var
}

func (o operand) scalar() bool { return o.expr != nil }

func (o operand) rows() int {
	if o.scalar() {
		return 1
	}
	return o.mvar.Rows
}

func (o operand) cols() int {
	if o.scalar() {
		return 1
	}
	return o.mvar.Cols
}

func constOp(v float64) operand {
	c := v
	return operand{expr: &Const{Val: v}, cval: &c}
}

type lowerer struct {
	src    *scil.Program
	out    *Program
	blocks []*[]Stmt
	uniq   map[string]int
	depth  int
}

func (lo *lowerer) newFrame() *frame {
	return &frame{vars: map[string]*binding{}}
}

// unique produces a program-unique IR variable name from a source name.
func (lo *lowerer) unique(name string) string {
	if lo.uniq == nil {
		lo.uniq = map[string]int{}
	}
	n := lo.uniq[name]
	lo.uniq[name] = n + 1
	if n == 0 {
		return name
	}
	return fmt.Sprintf("%s.%d", name, n)
}

func (lo *lowerer) emit(s Stmt) {
	blk := lo.blocks[len(lo.blocks)-1]
	*blk = append(*blk, s)
}

// inBlock lowers fn with a fresh statement block and returns it.
func (lo *lowerer) inBlock(fn func() error) ([]Stmt, error) {
	blk := &[]Stmt{}
	lo.blocks = append(lo.blocks, blk)
	err := fn()
	lo.blocks = lo.blocks[:len(lo.blocks)-1]
	if err != nil {
		return nil, err
	}
	return *blk, nil
}

func lowErr(pos scil.Pos, format string, args ...any) error {
	return fmt.Errorf("ir:%s: %s", pos, fmt.Sprintf(format, args...))
}

// --- statements -------------------------------------------------------------

func (lo *lowerer) stmts(stmts []scil.Stmt, fr *frame, topLevel bool) error {
	for i, s := range stmts {
		if _, ok := s.(*scil.ReturnStmt); ok {
			if topLevel && i == len(stmts)-1 {
				return nil // trailing return is a no-op
			}
			return lowErr(s.StmtPos(), "return is only supported as the final statement of a function in the compiled subset")
		}
		if err := lo.stmt(s, fr); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) stmt(s scil.Stmt, fr *frame) error {
	switch st := s.(type) {
	case *scil.AssignStmt:
		return lo.assign(st, fr)
	case *scil.ExprStmt:
		_, err := lo.expr(st.X, fr)
		return err
	case *scil.ForStmt:
		return lo.forStmt(st, fr)
	case *scil.WhileStmt:
		return lo.whileStmt(st, fr)
	case *scil.IfStmt:
		return lo.ifStmt(st, fr)
	case *scil.BreakStmt:
		lo.emit(&Break{})
		return nil
	case *scil.ContinueStmt:
		lo.emit(&Continue{})
		return nil
	}
	return lowErr(s.StmtPos(), "unsupported statement %T", s)
}

func (lo *lowerer) assign(st *scil.AssignStmt, fr *frame) error {
	if len(st.LHS) > 1 {
		call := st.RHS.(*scil.CallExpr)
		results, err := lo.inlineCall(call, fr, len(st.LHS))
		if err != nil {
			return err
		}
		for i, lv := range st.LHS {
			if err := lo.bindValue(lv.Name, results[i], fr, lv.Pos); err != nil {
				return err
			}
		}
		return nil
	}
	lv := st.LHS[0]
	if lv.Index != nil {
		return lo.indexedAssign(lv, st.RHS, fr)
	}
	rhs, err := lo.expr(st.RHS, fr)
	if err != nil {
		return err
	}
	return lo.bindValue(lv.Name, rhs, fr, lv.Pos)
}

// bindValue binds name to the value of op, emitting copies as required.
func (lo *lowerer) bindValue(name string, op operand, fr *frame, pos scil.Pos) error {
	existing := fr.vars[name]
	if op.scalar() {
		if existing != nil && !existing.v.Scalar {
			return lowErr(pos, "variable %q changes from matrix to scalar", name)
		}
		var v *Var
		if existing != nil {
			v = existing.v
		} else {
			v = lo.out.NewVar(&Var{Name: lo.unique(name), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
			fr.vars[name] = &binding{v: v}
		}
		lo.emit(&AssignScalar{Dst: v, Src: op.expr})
		b := fr.vars[name]
		b.cval = nil
		if op.cval != nil {
			c := *op.cval
			b.cval = &c
		}
		return nil
	}
	// Matrix value.
	if existing != nil {
		if existing.v.Scalar {
			return lowErr(pos, "variable %q changes from scalar to matrix", name)
		}
		if existing.v.Rows != op.mvar.Rows || existing.v.Cols != op.mvar.Cols {
			return lowErr(pos, "variable %q changes shape from %dx%d to %dx%d",
				name, existing.v.Rows, existing.v.Cols, op.mvar.Rows, op.mvar.Cols)
		}
		if existing.v == op.mvar {
			return nil // self-assignment
		}
		lo.emitCopy(existing.v, op.mvar)
		return nil
	}
	// Fresh name: alias temporaries, copy named variables.
	if lo.isTemp(op.mvar) {
		op.mvar.tempOwner = false
		op.mvar.Name = lo.unique(name)
		fr.vars[name] = &binding{v: op.mvar}
		return nil
	}
	dst := lo.out.NewVar(&Var{
		Name: lo.unique(name), Rows: op.mvar.Rows, Cols: op.mvar.Cols,
		Storage: StorageShared,
	})
	fr.vars[name] = &binding{v: dst}
	lo.emitCopy(dst, op.mvar)
	return nil
}

// isTemp reports whether v is a lowering-generated temporary that no scil
// name currently refers to — such values may be adopted without a copy.
func (lo *lowerer) isTemp(v *Var) bool {
	return v.tempOwner
}

// emitCopy emits element-by-element copy loops dst <- src.
func (lo *lowerer) emitCopy(dst, src *Var) {
	dst2, src2 := dst, src
	lo.emitElementwise(dst2, func(i, j Expr) Expr {
		return &Index{V: src2, Idx: []Expr{i, j}}
	})
}

// emitElementwise emits a dense 2-D loop nest writing every element of dst
// with fn(i, j).
func (lo *lowerer) emitElementwise(dst *Var, fn func(i, j Expr) Expr) {
	iv := lo.freshIVar("i")
	jv := lo.freshIVar("j")
	inner := &For{
		IVar: jv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(dst.Cols)},
		Trip: dst.Cols,
		Body: []Stmt{&Store{
			Dst: dst,
			Idx: []Expr{&VarRef{V: iv}, &VarRef{V: jv}},
			Src: fn(&VarRef{V: iv}, &VarRef{V: jv}),
		}},
	}
	outer := &For{
		IVar: iv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(dst.Rows)},
		Trip: dst.Rows,
		Body: []Stmt{inner},
	}
	lo.emit(outer)
}

func (lo *lowerer) freshIVar(prefix string) *Var {
	return lo.out.NewVar(&Var{Name: lo.unique("%" + prefix), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
}

// freshMatrix allocates a lowering temporary matrix.
func (lo *lowerer) freshMatrix(rows, cols int) *Var {
	v := lo.out.FreshVar("m", rows, cols, false)
	v.tempOwner = true
	return v
}

func (lo *lowerer) indexedAssign(lv *scil.LValue, rhs scil.Expr, fr *frame) error {
	b, ok := fr.vars[lv.Name]
	if !ok {
		return lowErr(lv.Pos, "indexed assignment to undefined variable %q (pre-allocate with zeros)", lv.Name)
	}
	if b.v.Scalar {
		return lowErr(lv.Pos, "cannot index scalar variable %q", lv.Name)
	}
	rop, err := lo.expr(rhs, fr)
	if err != nil {
		return err
	}
	if !rop.scalar() {
		return lowErr(lv.Pos, "indexed assignment requires a scalar right-hand side")
	}
	idx, err := lo.lowerIndices(lv.Index, b.v, fr, lv.Pos)
	if err != nil {
		return err
	}
	lo.emit(&Store{Dst: b.v, Idx: idx, Src: rop.expr})
	return nil
}

// lowerIndices lowers subscripts and converts linear indexing into 2-D
// indexing using the static shape.
func (lo *lowerer) lowerIndices(subs []scil.Expr, v *Var, fr *frame, pos scil.Pos) ([]Expr, error) {
	ops := make([]operand, len(subs))
	for i, s := range subs {
		op, err := lo.expr(s, fr)
		if err != nil {
			return nil, err
		}
		if !op.scalar() {
			return nil, lowErr(pos, "subscripts must be scalar")
		}
		ops[i] = op
	}
	switch len(ops) {
	case 2:
		return []Expr{ops[0].expr, ops[1].expr}, nil
	case 1:
		k := ops[0]
		switch {
		case v.Rows == 1: // row vector: a(k) == a(1, k)
			return []Expr{&Const{Val: 1}, k.expr}, nil
		case v.Cols == 1: // column vector: a(k) == a(k, 1)
			return []Expr{k.expr, &Const{Val: 1}}, nil
		default:
			// General column-major linear indexing:
			//   row = modulo(k-1, rows) + 1 ; col = floor((k-1)/rows) + 1
			km1 := lo.materialize(&Bin{Op: OpSub, X: k.expr, Y: &Const{Val: 1}})
			rows := &Const{Val: float64(v.Rows)}
			row := &Bin{Op: OpAdd, X: &Intrinsic{Name: "modulo", Args: []Expr{km1, rows}}, Y: &Const{Val: 1}}
			col := &Bin{Op: OpAdd,
				X: &Intrinsic{Name: "floor", Args: []Expr{&Bin{Op: OpDiv, X: CloneExpr(km1), Y: &Const{Val: float64(v.Rows)}}}},
				Y: &Const{Val: 1}}
			return []Expr{row, col}, nil
		}
	}
	return nil, lowErr(pos, "indexing supports 1 or 2 subscripts, got %d", len(ops))
}

// materialize binds a non-trivial scalar expression to a fresh register so
// it is evaluated once, and returns a reference to it.
func (lo *lowerer) materialize(e Expr) Expr {
	switch e.(type) {
	case *Const, *VarRef:
		return e
	}
	t := lo.out.NewVar(&Var{Name: lo.unique("%s"), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
	lo.emit(&AssignScalar{Dst: t, Src: e})
	return &VarRef{V: t}
}

func (lo *lowerer) forStmt(st *scil.ForStmt, fr *frame) error {
	loOp, err := lo.expr(st.Lo, fr)
	if err != nil {
		return err
	}
	hiOp, err := lo.expr(st.Hi, fr)
	if err != nil {
		return err
	}
	stepOp := constOp(1)
	if st.Step != nil {
		stepOp, err = lo.expr(st.Step, fr)
		if err != nil {
			return err
		}
	}
	for _, op := range []operand{loOp, hiOp, stepOp} {
		if !op.scalar() {
			return lowErr(st.Pos, "for-loop bounds must be scalar")
		}
	}
	if loOp.cval == nil || hiOp.cval == nil || stepOp.cval == nil {
		return lowErr(st.Pos, "for-loop bounds must be compile-time constants for WCET analysis (loop over %q)", st.Var)
	}
	step := *stepOp.cval
	if step == 0 {
		return lowErr(st.Pos, "for-loop step is zero")
	}
	trip := int(math.Floor((*hiOp.cval-*loOp.cval)/step)) + 1
	if trip < 0 {
		trip = 0
	}
	// Bounds are compile-time constants: materialize them as constants so
	// downstream loop transformations (unroll, split, chunking, tiling)
	// see them structurally.
	loOp.expr = &Const{Val: *loOp.cval}
	hiOp.expr = &Const{Val: *hiOp.cval}
	stepOp.expr = &Const{Val: step}
	// Bind the induction variable.
	b, ok := fr.vars[st.Var]
	if !ok {
		v := lo.out.NewVar(&Var{Name: lo.unique(st.Var), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
		b = &binding{v: v}
		fr.vars[st.Var] = b
	} else if !b.v.Scalar {
		return lowErr(st.Pos, "loop variable %q was a matrix", st.Var)
	}
	b.cval = nil
	lo.demoteAssigned(st.Body, fr)
	body, err := lo.inBlock(func() error { return lo.stmts(st.Body, fr, false) })
	if err != nil {
		return err
	}
	lo.emit(&For{
		IVar: b.v, Lo: loOp.expr, Step: stepOp.expr, Hi: hiOp.expr,
		Trip: trip, Body: body,
	})
	return nil
}

func (lo *lowerer) whileStmt(st *scil.WhileStmt, fr *frame) error {
	if st.Bound <= 0 {
		return lowErr(st.Pos, "while loop requires a //@bound N pragma for WCET analysis")
	}
	lo.demoteAssigned(st.Body, fr)
	condOp, err := lo.expr(st.Cond, fr)
	if err != nil {
		return err
	}
	cond, err := lo.truthiness(condOp, st.Pos)
	if err != nil {
		return err
	}
	body, err := lo.inBlock(func() error { return lo.stmts(st.Body, fr, false) })
	if err != nil {
		return err
	}
	lo.emit(&While{Cond: cond, Bound: st.Bound, Body: body})
	return nil
}

// truthiness converts an operand to a scalar condition expression
// (matrices use Scilab all-nonzero semantics via a reduction loop).
func (lo *lowerer) truthiness(op operand, pos scil.Pos) (Expr, error) {
	if op.scalar() {
		return op.expr, nil
	}
	acc := lo.out.NewVar(&Var{Name: lo.unique("%all"), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
	lo.emit(&AssignScalar{Dst: acc, Src: &Const{Val: 1}})
	m := op.mvar
	iv := lo.freshIVar("i")
	jv := lo.freshIVar("j")
	upd := &AssignScalar{Dst: acc, Src: &Bin{
		Op: OpAnd,
		X:  &VarRef{V: acc},
		Y:  &Bin{Op: OpNe, X: &Index{V: m, Idx: []Expr{&VarRef{V: iv}, &VarRef{V: jv}}}, Y: &Const{Val: 0}},
	}}
	inner := &For{IVar: jv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(m.Cols)}, Trip: m.Cols, Body: []Stmt{upd}}
	lo.emit(&For{IVar: iv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(m.Rows)}, Trip: m.Rows, Body: []Stmt{inner}})
	return &VarRef{V: acc}, nil
}

func (lo *lowerer) ifStmt(st *scil.IfStmt, fr *frame) error {
	condOp, err := lo.expr(st.Cond, fr)
	if err != nil {
		return err
	}
	cond, err := lo.truthiness(condOp, st.Pos)
	if err != nil {
		return err
	}
	// Constants assigned in either branch become unknown afterwards; the
	// branches themselves may still fold internally.
	snapshot := func() map[string]*float64 {
		m := make(map[string]*float64, len(fr.vars))
		for n, b := range fr.vars {
			m[n] = b.cval
		}
		return m
	}
	before := snapshot()
	thenB, err := lo.inBlock(func() error { return lo.stmts(st.Then, fr, false) })
	if err != nil {
		return err
	}
	afterThen := snapshot()
	// Restore pre-branch constants for the else branch.
	for n, b := range fr.vars {
		if c, ok := before[n]; ok {
			b.cval = c
		} else {
			b.cval = nil
		}
	}
	elseB, err := lo.inBlock(func() error { return lo.stmts(st.Else, fr, false) })
	if err != nil {
		return err
	}
	// Merge: a constant survives only if both paths agree.
	for n, b := range fr.vars {
		tc := afterThen[n]
		ec := b.cval
		if tc != nil && ec != nil && *tc == *ec {
			c := *tc
			b.cval = &c
		} else {
			b.cval = nil
		}
	}
	lo.emit(&If{Cond: cond, Then: thenB, Else: elseB})
	return nil
}

// demoteAssigned clears constant tracking for every frame variable that
// the given scil statements may assign (used before loop bodies).
func (lo *lowerer) demoteAssigned(stmts []scil.Stmt, fr *frame) {
	names := map[string]bool{}
	var walk func(ss []scil.Stmt)
	walk = func(ss []scil.Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *scil.AssignStmt:
				for _, lv := range st.LHS {
					names[lv.Name] = true
				}
			case *scil.ForStmt:
				names[st.Var] = true
				walk(st.Body)
			case *scil.WhileStmt:
				walk(st.Body)
			case *scil.IfStmt:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(stmts)
	for n := range names {
		if b, ok := fr.vars[n]; ok {
			b.cval = nil
		}
	}
}
