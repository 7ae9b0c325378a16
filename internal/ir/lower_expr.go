package ir

import (
	"fmt"
	"math"

	"argo/internal/scil"
)

var binOpMap = map[scil.Kind]BinOp{
	scil.PLUS: OpAdd, scil.MINUS: OpSub, scil.STAR: OpMul, scil.DOTSTAR: OpMul,
	scil.SLASH: OpDiv, scil.DOTSLASH: OpDiv, scil.CARET: OpPow,
	scil.EQ: OpEq, scil.NEQ: OpNe, scil.LT: OpLt, scil.LE: OpLe,
	scil.GT: OpGt, scil.GE: OpGe, scil.AND: OpAnd, scil.OR: OpOr,
}

// FoldBin evaluates a binary op. With FoldUn it is the one definition of
// scalar operator semantics: lowering, transform.FoldConstants, ir.Exec
// and the exact WCET engine all evaluate operators through it, and the
// VM's binary opcodes (one per BinOp, in BinOp order) mirror it case by
// case.
func FoldBin(op BinOp, a, b float64) float64 {
	t := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpPow:
		return math.Pow(a, b)
	case OpEq:
		return t(a == b)
	case OpNe:
		return t(a != b)
	case OpLt:
		return t(a < b)
	case OpLe:
		return t(a <= b)
	case OpGt:
		return t(a > b)
	case OpGe:
		return t(a >= b)
	case OpAnd:
		return t(a != 0 && b != 0)
	case OpOr:
		return t(a != 0 || b != 0)
	}
	panic(fmt.Sprintf("ir.FoldBin: unknown op %v", op))
}

// FoldUn evaluates a unary op: -a, or for ~a 1 when a is zero and 0
// otherwise.
func FoldUn(op UnOp, a float64) float64 {
	switch op {
	case OpNeg:
		return -a
	case OpNot:
		if a == 0 {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("ir.FoldUn: unknown op %d", int(op)))
}

// expr lowers a scil expression to an operand, emitting statements for any
// matrix materialization required.
func (lo *lowerer) expr(e scil.Expr, fr *frame) (operand, error) {
	switch x := e.(type) {
	case *scil.NumberLit:
		return constOp(x.Value), nil
	case *scil.StringLit:
		return operand{}, lowErr(x.Pos, "string values are not supported in compiled code")
	case *scil.Ident:
		b, ok := fr.vars[x.Name]
		if !ok {
			return operand{}, lowErr(x.Pos, "undefined variable %q", x.Name)
		}
		if b.v.Scalar {
			op := operand{expr: &VarRef{V: b.v}}
			if b.cval != nil {
				c := *b.cval
				op.cval = &c
			}
			return op, nil
		}
		return operand{mvar: b.v}, nil
	case *scil.UnExpr:
		return lo.unExpr(x, fr)
	case *scil.BinExpr:
		return lo.binExpr(x, fr)
	case *scil.MatrixLit:
		return lo.matrixLit(x, fr)
	case *scil.RangeExpr:
		return lo.rangeExpr(x, fr)
	case *scil.CallExpr:
		return lo.callExpr(x, fr)
	}
	return operand{}, lowErr(e.ExprPos(), "unsupported expression %T", e)
}

func (lo *lowerer) unExpr(x *scil.UnExpr, fr *frame) (operand, error) {
	op, err := lo.expr(x.X, fr)
	if err != nil {
		return operand{}, err
	}
	irop := OpNeg
	if x.Op == scil.NOT {
		irop = OpNot
	}
	if op.scalar() {
		out := operand{expr: &Un{Op: irop, X: op.expr}}
		if op.cval != nil {
			c := FoldUn(irop, *op.cval)
			out.cval = &c
			out.expr = &Const{Val: c}
		}
		return out, nil
	}
	dst := lo.freshMatrix(op.rows(), op.cols())
	src := op.mvar
	lo.emitElementwise(dst, func(i, j Expr) Expr {
		return &Un{Op: irop, X: &Index{V: src, Idx: []Expr{i, j}}}
	})
	return operand{mvar: dst}, nil
}

func (lo *lowerer) binExpr(x *scil.BinExpr, fr *frame) (operand, error) {
	a, err := lo.expr(x.X, fr)
	if err != nil {
		return operand{}, err
	}
	b, err := lo.expr(x.Y, fr)
	if err != nil {
		return operand{}, err
	}
	op, ok := binOpMap[x.Op]
	if !ok {
		return operand{}, lowErr(x.Pos, "unsupported operator %s", x.Op)
	}
	if a.scalar() && b.scalar() {
		if a.cval != nil && b.cval != nil {
			return constOp(FoldBin(op, *a.cval, *b.cval)), nil
		}
		return operand{expr: &Bin{Op: op, X: a.expr, Y: b.expr}}, nil
	}
	// True matrix product.
	if x.Op == scil.STAR && !a.scalar() && !b.scalar() {
		return lo.matMul(a, b, x.Pos)
	}
	return lo.broadcast(op, a, b, x.Pos)
}

// broadcast emits an elementwise loop applying op with scalar broadcasting.
func (lo *lowerer) broadcast(op BinOp, a, b operand, pos scil.Pos) (operand, error) {
	rows, cols := a.rows(), a.cols()
	if a.scalar() {
		rows, cols = b.rows(), b.cols()
	} else if !b.scalar() && (a.rows() != b.rows() || a.cols() != b.cols()) {
		return operand{}, lowErr(pos, "shape mismatch %dx%d vs %dx%d", a.rows(), a.cols(), b.rows(), b.cols())
	}
	// Hoist non-trivial scalar operands so they are evaluated once.
	if a.scalar() {
		a.expr = lo.materialize(a.expr)
	}
	if b.scalar() {
		b.expr = lo.materialize(b.expr)
	}
	dst := lo.freshMatrix(rows, cols)
	elemA := lo.elemFn(a)
	elemB := lo.elemFn(b)
	lo.emitElementwise(dst, func(i, j Expr) Expr {
		return &Bin{Op: op, X: elemA(i, j), Y: elemB(i, j)}
	})
	return operand{mvar: dst}, nil
}

// elemFn returns an element accessor for an operand (broadcasting scalars).
func (lo *lowerer) elemFn(op operand) func(i, j Expr) Expr {
	if op.scalar() {
		e := op.expr
		return func(i, j Expr) Expr { return CloneExpr(e) }
	}
	v := op.mvar
	return func(i, j Expr) Expr { return &Index{V: v, Idx: []Expr{CloneExpr(i), CloneExpr(j)}} }
}

// matMul emits a classic triple loop for the matrix product.
func (lo *lowerer) matMul(a, b operand, pos scil.Pos) (operand, error) {
	if a.cols() != b.rows() {
		return operand{}, lowErr(pos, "matrix product dimension mismatch %dx%d * %dx%d", a.rows(), a.cols(), b.rows(), b.cols())
	}
	dst := lo.freshMatrix(a.rows(), b.cols())
	am, bm := a.mvar, b.mvar
	iv := lo.freshIVar("i")
	jv := lo.freshIVar("j")
	kv := lo.freshIVar("k")
	acc := lo.out.NewVar(&Var{Name: lo.unique("%acc"), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
	kLoop := &For{
		IVar: kv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(a.cols())}, Trip: a.cols(),
		Body: []Stmt{&AssignScalar{Dst: acc, Src: &Bin{
			Op: OpAdd,
			X:  &VarRef{V: acc},
			Y: &Bin{Op: OpMul,
				X: &Index{V: am, Idx: []Expr{&VarRef{V: iv}, &VarRef{V: kv}}},
				Y: &Index{V: bm, Idx: []Expr{&VarRef{V: kv}, &VarRef{V: jv}}},
			},
		}}},
	}
	jLoop := &For{
		IVar: jv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(dst.Cols)}, Trip: dst.Cols,
		Body: []Stmt{
			&AssignScalar{Dst: acc, Src: &Const{Val: 0}},
			kLoop,
			&Store{Dst: dst, Idx: []Expr{&VarRef{V: iv}, &VarRef{V: jv}}, Src: &VarRef{V: acc}},
		},
	}
	lo.emit(&For{
		IVar: iv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(dst.Rows)}, Trip: dst.Rows,
		Body: []Stmt{jLoop},
	})
	return operand{mvar: dst}, nil
}

func (lo *lowerer) matrixLit(x *scil.MatrixLit, fr *frame) (operand, error) {
	rows := len(x.Rows)
	if rows == 0 {
		return operand{}, lowErr(x.Pos, "empty matrix literals are not supported in compiled code")
	}
	cols := len(x.Rows[0])
	dst := lo.freshMatrix(rows, cols)
	for i, row := range x.Rows {
		if len(row) != cols {
			return operand{}, lowErr(x.Pos, "ragged matrix literal")
		}
		for j, el := range row {
			op, err := lo.expr(el, fr)
			if err != nil {
				return operand{}, err
			}
			if !op.scalar() {
				return operand{}, lowErr(el.ExprPos(), "matrix literal elements must be scalar")
			}
			lo.emit(&Store{Dst: dst, Idx: []Expr{&Const{Val: float64(i + 1)}, &Const{Val: float64(j + 1)}}, Src: op.expr})
		}
	}
	return operand{mvar: dst}, nil
}

func (lo *lowerer) rangeExpr(x *scil.RangeExpr, fr *frame) (operand, error) {
	loOp, err := lo.expr(x.Lo, fr)
	if err != nil {
		return operand{}, err
	}
	hiOp, err := lo.expr(x.Hi, fr)
	if err != nil {
		return operand{}, err
	}
	stepOp := constOp(1)
	if x.Step != nil {
		stepOp, err = lo.expr(x.Step, fr)
		if err != nil {
			return operand{}, err
		}
	}
	if loOp.cval == nil || hiOp.cval == nil || stepOp.cval == nil {
		return operand{}, lowErr(x.Pos, "range bounds must be compile-time constants")
	}
	step := *stepOp.cval
	if step == 0 {
		return operand{}, lowErr(x.Pos, "range with zero step")
	}
	n := int(math.Floor((*hiOp.cval-*loOp.cval)/step)) + 1
	if n < 0 {
		n = 0
	}
	if n == 0 {
		return operand{}, lowErr(x.Pos, "empty range is not supported in compiled code")
	}
	dst := lo.freshMatrix(1, n)
	kv := lo.freshIVar("k")
	// dst(1, k) = lo + (k-1)*step
	val := &Bin{Op: OpAdd,
		X: &Const{Val: *loOp.cval},
		Y: &Bin{Op: OpMul, X: &Bin{Op: OpSub, X: &VarRef{V: kv}, Y: &Const{Val: 1}}, Y: &Const{Val: step}},
	}
	lo.emit(&For{
		IVar: kv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(n)}, Trip: n,
		Body: []Stmt{&Store{Dst: dst, Idx: []Expr{&Const{Val: 1}, &VarRef{V: kv}}, Src: val}},
	})
	return operand{mvar: dst}, nil
}

func (lo *lowerer) callExpr(x *scil.CallExpr, fr *frame) (operand, error) {
	// Indexing?
	if b, ok := fr.vars[x.Name]; ok {
		if b.v.Scalar {
			return operand{}, lowErr(x.Pos, "cannot index scalar variable %q", x.Name)
		}
		idx, err := lo.lowerIndices(x.Args, b.v, fr, x.Pos)
		if err != nil {
			return operand{}, err
		}
		return operand{expr: &Index{V: b.v, Idx: idx}}, nil
	}
	if scil.LookupBuiltin(x.Name) != nil {
		return lo.builtinCall(x, fr)
	}
	if lo.src.Func(x.Name) != nil {
		res, err := lo.inlineCall(x, fr, 1)
		if err != nil {
			return operand{}, err
		}
		return res[0], nil
	}
	return operand{}, lowErr(x.Pos, "undefined variable or function %q", x.Name)
}

// scalarIntrinsics are builtins that map directly to IR Intrinsic nodes on
// scalar arguments and can be const-folded through the scil evaluator.
var scalarIntrinsics = map[string]bool{
	"abs": true, "sqrt": true, "floor": true, "ceil": true, "round": true,
	"sign": true, "sin": true, "cos": true, "tan": true, "exp": true,
	"log": true, "min": true, "max": true, "modulo": true, "atan2": true,
	"atan": true,
}

// reductions maps reduction builtins to (initial value, combining op).
type reductionSpec struct {
	init    float64
	combine func(acc, x Expr) Expr
	post    func(acc Expr, n int) Expr
}

var reductionSpecs = map[string]reductionSpec{
	"sum": {init: 0, combine: func(a, x Expr) Expr { return &Bin{Op: OpAdd, X: a, Y: x} }},
	"prod": {init: 1, combine: func(a, x Expr) Expr {
		return &Bin{Op: OpMul, X: a, Y: x}
	}},
	"mean": {init: 0,
		combine: func(a, x Expr) Expr { return &Bin{Op: OpAdd, X: a, Y: x} },
		post: func(a Expr, n int) Expr {
			return &Bin{Op: OpDiv, X: a, Y: &Const{Val: float64(n)}}
		}},
	"minval": {init: math.Inf(1), combine: func(a, x Expr) Expr {
		return &Intrinsic{Name: "min", Args: []Expr{a, x}}
	}},
	"maxval": {init: math.Inf(-1), combine: func(a, x Expr) Expr {
		return &Intrinsic{Name: "max", Args: []Expr{a, x}}
	}},
}

func (lo *lowerer) builtinCall(x *scil.CallExpr, fr *frame) (operand, error) {
	args := make([]operand, len(x.Args))
	allConst := true
	anyMatrix := false
	for i, a := range x.Args {
		op, err := lo.expr(a, fr)
		if err != nil {
			return operand{}, err
		}
		args[i] = op
		if !op.scalar() {
			anyMatrix = true
			allConst = false
		} else if op.cval == nil {
			allConst = false
		}
	}
	switch x.Name {
	case "zeros", "ones", "eye":
		return lo.fillBuiltin(x, args)
	case "size":
		if len(args) == 1 {
			dst := lo.freshMatrix(1, 2)
			lo.emit(&Store{Dst: dst, Idx: []Expr{&Const{Val: 1}, &Const{Val: 1}}, Src: &Const{Val: float64(args[0].rows())}})
			lo.emit(&Store{Dst: dst, Idx: []Expr{&Const{Val: 1}, &Const{Val: 2}}, Src: &Const{Val: float64(args[0].cols())}})
			return operand{mvar: dst}, nil
		}
		if args[1].cval == nil {
			return operand{}, lowErr(x.Pos, "size dimension must be a constant")
		}
		switch int(*args[1].cval) {
		case 1:
			return constOp(float64(args[0].rows())), nil
		case 2:
			return constOp(float64(args[0].cols())), nil
		}
		return operand{}, lowErr(x.Pos, "size dimension must be 1 or 2")
	case "length":
		return constOp(float64(args[0].rows() * args[0].cols())), nil
	}
	if spec, ok := reductionSpecs[x.Name]; ok {
		if !anyMatrix {
			// Reduction of a scalar is the identity (mean(x) == x etc.).
			return args[0], nil
		}
		return lo.reduction(x.Name, spec, args[0])
	}
	if !scalarIntrinsics[x.Name] {
		return operand{}, lowErr(x.Pos, "builtin %q is not supported in compiled code", x.Name)
	}
	if !anyMatrix {
		if allConst {
			vals := make([]float64, len(args))
			for i, a := range args {
				vals[i] = *a.cval
			}
			v, err := scil.LookupBuiltin(x.Name).Call(vals)
			if err != nil {
				return operand{}, lowErr(x.Pos, "constant folding %s: %v", x.Name, err)
			}
			return constOp(v), nil
		}
		exprs := make([]Expr, len(args))
		for i, a := range args {
			exprs[i] = a.expr
		}
		return operand{expr: &Intrinsic{Name: x.Name, Args: exprs}}, nil
	}
	// Elementwise matrix application with scalar broadcasting.
	rows, cols := 0, 0
	for _, a := range args {
		if !a.scalar() {
			if rows == 0 {
				rows, cols = a.rows(), a.cols()
			} else if a.rows() != rows || a.cols() != cols {
				return operand{}, lowErr(x.Pos, "shape mismatch in %s", x.Name)
			}
		}
	}
	for i := range args {
		if args[i].scalar() {
			args[i].expr = lo.materialize(args[i].expr)
		}
	}
	dst := lo.freshMatrix(rows, cols)
	accessors := make([]func(i, j Expr) Expr, len(args))
	for i, a := range args {
		accessors[i] = lo.elemFn(a)
	}
	name := x.Name
	lo.emitElementwise(dst, func(i, j Expr) Expr {
		es := make([]Expr, len(accessors))
		for k, fn := range accessors {
			es[k] = fn(i, j)
		}
		return &Intrinsic{Name: name, Args: es}
	})
	return operand{mvar: dst}, nil
}

func (lo *lowerer) fillBuiltin(x *scil.CallExpr, args []operand) (operand, error) {
	dims := make([]int, len(args))
	for i, a := range args {
		if a.cval == nil {
			return operand{}, lowErr(x.Pos, "%s dimensions must be compile-time constants", x.Name)
		}
		dims[i] = int(*a.cval)
		if dims[i] < 0 {
			return operand{}, lowErr(x.Pos, "%s dimension must be non-negative", x.Name)
		}
	}
	rows := dims[0]
	cols := rows
	if len(dims) == 2 {
		cols = dims[1]
	}
	if rows == 0 || cols == 0 {
		return operand{}, lowErr(x.Pos, "zero-sized matrices are not supported in compiled code")
	}
	dst := lo.freshMatrix(rows, cols)
	switch x.Name {
	case "zeros":
		lo.emitElementwise(dst, func(i, j Expr) Expr { return &Const{Val: 0} })
	case "ones":
		lo.emitElementwise(dst, func(i, j Expr) Expr { return &Const{Val: 1} })
	case "eye":
		lo.emitElementwise(dst, func(i, j Expr) Expr {
			return &Bin{Op: OpEq, X: i, Y: j}
		})
	}
	return operand{mvar: dst}, nil
}

// reduction emits an accumulator loop over all elements of the operand.
func (lo *lowerer) reduction(name string, spec reductionSpec, src operand) (operand, error) {
	acc := lo.out.NewVar(&Var{Name: lo.unique("%" + name), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
	lo.emit(&AssignScalar{Dst: acc, Src: &Const{Val: spec.init}})
	m := src.mvar
	iv := lo.freshIVar("i")
	jv := lo.freshIVar("j")
	upd := &AssignScalar{Dst: acc, Src: spec.combine(
		&VarRef{V: acc},
		&Index{V: m, Idx: []Expr{&VarRef{V: iv}, &VarRef{V: jv}}},
	)}
	inner := &For{IVar: jv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(m.Cols)}, Trip: m.Cols, Body: []Stmt{upd}}
	lo.emit(&For{IVar: iv, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: float64(m.Rows)}, Trip: m.Rows, Body: []Stmt{inner}})
	var out Expr = &VarRef{V: acc}
	if spec.post != nil {
		out = spec.post(out, m.Rows*m.Cols)
	}
	return operand{expr: out}, nil
}

// inlineCall lowers a user-function call by inlining its body into the
// current instruction stream and returns its first nresults results.
func (lo *lowerer) inlineCall(x *scil.CallExpr, caller *frame, nresults int) ([]operand, error) {
	lo.depth++
	defer func() { lo.depth-- }()
	if lo.depth > 64 {
		return nil, lowErr(x.Pos, "inlining depth limit exceeded (recursion?)")
	}
	callee := lo.src.Func(x.Name)
	if callee == nil {
		return nil, lowErr(x.Pos, "undefined function %q", x.Name)
	}
	if len(x.Args) != len(callee.Params) {
		return nil, lowErr(x.Pos, "%q expects %d arguments, got %d", x.Name, len(callee.Params), len(x.Args))
	}
	if len(callee.Results) < nresults {
		return nil, lowErr(x.Pos, "%q returns %d values, %d requested", x.Name, len(callee.Results), nresults)
	}
	written := assignedTargets(callee.Body)
	fr := lo.newFrame()
	for i, pname := range callee.Params {
		op, err := lo.expr(x.Args[i], caller)
		if err != nil {
			return nil, err
		}
		if op.scalar() {
			v := lo.out.NewVar(&Var{Name: lo.unique(x.Name + "." + pname), Scalar: true, Rows: 1, Cols: 1, Storage: StorageReg})
			lo.emit(&AssignScalar{Dst: v, Src: op.expr})
			b := &binding{v: v}
			if op.cval != nil {
				c := *op.cval
				b.cval = &c
			}
			fr.vars[pname] = b
			continue
		}
		// Matrix argument: alias when the callee never writes the
		// parameter (Scilab value semantics are then unobservable),
		// otherwise copy.
		if !written[pname] {
			fr.vars[pname] = &binding{v: op.mvar}
			continue
		}
		dst := lo.out.NewVar(&Var{
			Name: lo.unique(x.Name + "." + pname), Rows: op.rows(), Cols: op.cols(),
			Storage: StorageShared,
		})
		lo.emitCopy(dst, op.mvar)
		fr.vars[pname] = &binding{v: dst}
	}
	if err := lo.stmts(callee.Body, fr, true); err != nil {
		return nil, err
	}
	out := make([]operand, nresults)
	for i := 0; i < nresults; i++ {
		rname := callee.Results[i]
		b, ok := fr.vars[rname]
		if !ok {
			return nil, lowErr(x.Pos, "%q result %q never assigned", x.Name, rname)
		}
		if b.v.Scalar {
			op := operand{expr: &VarRef{V: b.v}}
			if b.cval != nil {
				c := *b.cval
				op.cval = &c
			}
			out[i] = op
		} else {
			out[i] = operand{mvar: b.v}
		}
	}
	return out, nil
}

// assignedTargets collects names assigned anywhere in stmts (loop vars and
// all assignment targets).
func assignedTargets(stmts []scil.Stmt) map[string]bool {
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
	return names
}
