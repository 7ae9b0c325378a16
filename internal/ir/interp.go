package ir

import (
	"fmt"
	"math"

	"argo/internal/scil"
)

// Meter observes the dynamic behaviour of an IR execution. The multicore
// simulator and the tightness experiments implement this to convert an
// actual execution path into cycles and shared-memory traffic using the
// same cost model as the static WCET analysis.
type Meter interface {
	// Ops reports n abstract ALU-operation units executed.
	Ops(n int)
	// Read reports a load of one element of matrix variable v.
	Read(v *Var)
	// Write reports a store of one element of matrix variable v.
	Write(v *Var)
}

// ExprOpUnits returns the abstract ALU cost of evaluating e once,
// excluding memory access latencies (those are charged per Read/Write).
// This is the single cost definition shared by the static WCET analysis
// and the dynamic meter, which is what makes "measured <= bound"
// mechanically checkable.
func ExprOpUnits(e Expr) int {
	switch x := e.(type) {
	case nil:
		return 0
	case *Const:
		return 0
	case *VarRef:
		return 0
	case *Index:
		n := 1 // address computation
		for _, ix := range x.Idx {
			n += ExprOpUnits(ix)
		}
		return n
	case *Bin:
		return 1 + ExprOpUnits(x.X) + ExprOpUnits(x.Y)
	case *Un:
		return 1 + ExprOpUnits(x.X)
	case *Intrinsic:
		n := 0
		if b := scil.LookupBuiltin(x.Name); b != nil {
			n = b.Cost
		} else {
			n = 1
		}
		for _, a := range x.Args {
			n += ExprOpUnits(a)
		}
		return n
	}
	return 1
}

// ExprReads counts element loads performed by one evaluation of e, per
// matrix variable.
func ExprReads(e Expr, out map[*Var]int) {
	WalkExprs(e, func(sub Expr) {
		if ix, ok := sub.(*Index); ok {
			out[ix.V]++
		}
	})
}

// Exec is an IR interpreter instance.
//
// Variable storage is slot-based: variables registered in the program's
// Vars table resolve to dense slices indexed by their slot, so the hot
// interpreter paths (VarRef reads, scalar assignments, buffer lookups)
// perform no map operations. Variables from outside the program (e.g.
// remapped clones fed cross-program) fall back to maps.
type Exec struct {
	prog  *Program
	meter Meter

	slotScalars []float64   // dense scalar storage, index = slot-1
	slotMats    [][]float64 // dense matrix storage (row-major), index = slot-1
	scalars     map[*Var]float64
	mats        map[*Var][]float64 // row-major

	fuel int
}

// ExecFuel bounds the number of executed statements per Run.
const ExecFuel = 200_000_000

// NewExec returns an interpreter for prog. meter may be nil.
func NewExec(prog *Program, meter Meter) *Exec {
	return &Exec{prog: prog, meter: meter}
}

// slotOf returns the dense storage index of v, or -1 if v is not a
// registered variable of the executing program.
func (ex *Exec) slotOf(v *Var) int {
	if v.owner == ex.prog {
		if s := v.slot; s > 0 && s <= len(ex.slotScalars) {
			return s - 1
		}
	}
	return -1
}

func (ex *Exec) getScalar(v *Var) float64 {
	if s := ex.slotOf(v); s >= 0 {
		return ex.slotScalars[s]
	}
	return ex.scalars[v]
}

func (ex *Exec) setScalar(v *Var, x float64) {
	if s := ex.slotOf(v); s >= 0 {
		ex.slotScalars[s] = x
		return
	}
	if ex.scalars == nil {
		ex.scalars = make(map[*Var]float64)
	}
	ex.scalars[v] = x
}

// matrix returns v's current buffer without creating it (nil if untouched).
func (ex *Exec) matrix(v *Var) []float64 {
	if s := ex.slotOf(v); s >= 0 {
		return ex.slotMats[s]
	}
	return ex.mats[v]
}

// MatrixValue exposes a copy of a matrix variable's current contents
// (row-major); nil if the variable has never been touched.
func (ex *Exec) MatrixValue(v *Var) []float64 {
	m := ex.matrix(v)
	if m == nil {
		return nil
	}
	out := make([]float64, len(m))
	copy(out, m)
	return out
}

// ScalarValue exposes the current value of a scalar variable.
func (ex *Exec) ScalarValue(v *Var) float64 { return ex.getScalar(v) }

// Run executes the program's entry function. Matrix arguments are
// row-major slices; scalar arguments are single-element slices. Results
// are returned in declaration order: scalars as 1-element slices,
// matrices row-major.
func (ex *Exec) Run(args [][]float64) ([][]float64, error) {
	if err := ex.Init(args); err != nil {
		return nil, err
	}
	if err := ex.ExecBlock(ex.prog.Entry.Body); err != nil {
		return nil, err
	}
	return ex.Results(), nil
}

// Init binds the entry arguments and resets execution state. It allows
// callers (the multi-core simulator) to execute the program region by
// region via ExecBlock.
func (ex *Exec) Init(args [][]float64) error {
	f := ex.prog.Entry
	if len(args) != len(f.Params) {
		return fmt.Errorf("ir: entry expects %d arguments, got %d", len(f.Params), len(args))
	}
	nv := len(ex.prog.Vars)
	if cap(ex.slotScalars) < nv {
		ex.slotScalars = make([]float64, nv)
		ex.slotMats = make([][]float64, nv)
	} else {
		ex.slotScalars = ex.slotScalars[:nv]
		ex.slotMats = ex.slotMats[:nv]
		clear(ex.slotScalars)
		clear(ex.slotMats)
	}
	ex.scalars = nil
	ex.mats = nil
	ex.fuel = ExecFuel
	for i, p := range f.Params {
		if p.Scalar {
			if len(args[i]) != 1 {
				return fmt.Errorf("ir: argument %d (%s) must be scalar", i, p.Name)
			}
			ex.setScalar(p, args[i][0])
		} else {
			if len(args[i]) != p.Elems() {
				return fmt.Errorf("ir: argument %d (%s) must have %d elements, got %d", i, p.Name, p.Elems(), len(args[i]))
			}
			buf := make([]float64, p.Elems())
			copy(buf, args[i])
			if s := ex.slotOf(p); s >= 0 {
				ex.slotMats[s] = buf
			} else {
				if ex.mats == nil {
					ex.mats = make(map[*Var][]float64)
				}
				ex.mats[p] = buf
			}
		}
	}
	return nil
}

// SetMeter swaps the meter (used to meter each task region separately).
func (ex *Exec) SetMeter(m Meter) { ex.meter = m }

// SetFuel overrides the remaining execution budget (ExecFuel after
// Init). Differential fuzzing uses a small budget so adversarial
// programs stay cheap in both the tree walker and the bytecode VM.
func (ex *Exec) SetFuel(n int) { ex.fuel = n }

// Reset rebinds the interpreter to a (possibly different) program and
// clears the meter, so pooled instances can be reused across runs; call
// Init afterwards to bind arguments.
func (ex *Exec) Reset(prog *Program) {
	ex.prog = prog
	ex.meter = nil
}

// ExecBlock executes a statement region against the current state.
func (ex *Exec) ExecBlock(stmts []Stmt) error {
	_, err := ex.block(stmts)
	return err
}

// The methods below are the timing-slice executor's window into
// interpreter state (internal/ir/slice drives control flow itself and
// replays the meter effects of sliced-away statements, so it needs the
// exact eval, fuel, and meter primitives statement execution uses).

// EvalScalar evaluates an expression against the current state,
// emitting meter Read events exactly as statement execution would.
func (ex *Exec) EvalScalar(e Expr) (float64, error) { return ex.eval(e) }

// Burn consumes one unit of execution fuel — the per-statement (and
// per-loop-check) budget charge.
func (ex *Exec) Burn() error { return ex.burn() }

// Fuel returns the remaining execution budget.
func (ex *Exec) Fuel() int { return ex.fuel }

// SetScalarValue writes a scalar register directly.
func (ex *Exec) SetScalarValue(v *Var, x float64) { ex.setScalar(v, x) }

// MeterOps forwards an ALU charge to the attached meter (nil-safe,
// zero charges suppressed — the same filtering statement execution
// applies).
func (ex *Exec) MeterOps(n int) { ex.ops(n) }

// MeterRead forwards an element-load event to the attached meter.
func (ex *Exec) MeterRead(v *Var) {
	if ex.meter != nil {
		ex.meter.Read(v)
	}
}

// MeterWrite forwards an element-store event to the attached meter.
func (ex *Exec) MeterWrite(v *Var) {
	if ex.meter != nil {
		ex.meter.Write(v)
	}
}

// Results extracts the entry function's results from the current state.
func (ex *Exec) Results() [][]float64 {
	f := ex.prog.Entry
	out := make([][]float64, len(f.Results))
	for i, r := range f.Results {
		if r.Scalar {
			out[i] = []float64{ex.getScalar(r)}
		} else {
			buf := ex.matrix(r)
			if buf == nil {
				buf = make([]float64, r.Elems())
			}
			cp := make([]float64, len(buf))
			copy(cp, buf)
			out[i] = cp
		}
	}
	return out
}

type execCtrl int

const (
	execNone execCtrl = iota
	execBreak
	execContinue
)

func (ex *Exec) block(stmts []Stmt) (execCtrl, error) {
	for _, s := range stmts {
		c, err := ex.stmt(s)
		if err != nil {
			return execNone, err
		}
		if c != execNone {
			return c, nil
		}
	}
	return execNone, nil
}

func (ex *Exec) burn() error {
	ex.fuel--
	if ex.fuel <= 0 {
		return fmt.Errorf("ir: execution budget exhausted")
	}
	return nil
}

func (ex *Exec) ops(n int) {
	if ex.meter != nil && n > 0 {
		ex.meter.Ops(n)
	}
}

func (ex *Exec) stmt(s Stmt) (execCtrl, error) {
	if err := ex.burn(); err != nil {
		return execNone, err
	}
	switch st := s.(type) {
	case *AssignScalar:
		v, err := ex.eval(st.Src)
		if err != nil {
			return execNone, err
		}
		if ex.meter != nil {
			if st.units > 0 {
				ex.ops(int(st.units))
			} else {
				ex.ops(ExprOpUnits(st.Src) + 1)
			}
		}
		ex.setScalar(st.Dst, v)
		return execNone, nil
	case *Store:
		off, err := ex.offset(st.Dst, st.Idx)
		if err != nil {
			return execNone, err
		}
		v, err := ex.eval(st.Src)
		if err != nil {
			return execNone, err
		}
		if ex.meter != nil {
			if st.units > 0 {
				ex.ops(int(st.units))
			} else {
				units := 1 + ExprOpUnits(st.Src)
				for _, ix := range st.Idx {
					units += ExprOpUnits(ix)
				}
				ex.ops(units)
			}
		}
		buf := ex.buffer(st.Dst)
		buf[off] = v
		if ex.meter != nil {
			ex.meter.Write(st.Dst)
		}
		return execNone, nil
	case *For:
		return ex.forLoop(st)
	case *While:
		for iter := 0; ; iter++ {
			if err := ex.burn(); err != nil {
				return execNone, err
			}
			c, err := ex.eval(st.Cond)
			if err != nil {
				return execNone, err
			}
			if ex.meter != nil {
				if st.units > 0 {
					ex.ops(int(st.units))
				} else {
					ex.ops(ExprOpUnits(st.Cond) + 1)
				}
			}
			if c == 0 {
				return execNone, nil
			}
			if iter >= st.Bound {
				return execNone, fmt.Errorf("ir: while loop exceeded its @bound %d", st.Bound)
			}
			ctl, err := ex.block(st.Body)
			if err != nil {
				return execNone, err
			}
			if ctl == execBreak {
				return execNone, nil
			}
		}
	case *If:
		c, err := ex.eval(st.Cond)
		if err != nil {
			return execNone, err
		}
		if ex.meter != nil {
			if st.units > 0 {
				ex.ops(int(st.units))
			} else {
				ex.ops(ExprOpUnits(st.Cond) + 1)
			}
		}
		if c != 0 {
			return ex.block(st.Then)
		}
		return ex.block(st.Else)
	case *Break:
		return execBreak, nil
	case *Continue:
		return execContinue, nil
	}
	return execNone, fmt.Errorf("ir: unknown statement %T", s)
}

func (ex *Exec) forLoop(st *For) (execCtrl, error) {
	lo, err := ex.eval(st.Lo)
	if err != nil {
		return execNone, err
	}
	hi, err := ex.eval(st.Hi)
	if err != nil {
		return execNone, err
	}
	step, err := ex.eval(st.Step)
	if err != nil {
		return execNone, err
	}
	if ex.meter != nil {
		if st.units > 0 {
			ex.ops(int(st.units))
		} else {
			ex.ops(ExprOpUnits(st.Lo) + ExprOpUnits(st.Hi) + ExprOpUnits(st.Step))
		}
	}
	if step == 0 {
		return execNone, fmt.Errorf("ir: for loop with zero step")
	}
	iters := 0
	for v := lo; (step > 0 && v <= hi+1e-12) || (step < 0 && v >= hi-1e-12); v += step {
		if err := ex.burn(); err != nil {
			return execNone, err
		}
		iters++
		if iters > st.Trip {
			return execNone, fmt.Errorf("ir: for loop exceeded its static trip count %d", st.Trip)
		}
		ex.setScalar(st.IVar, v)
		ex.ops(2) // increment + branch
		ctl, err := ex.block(st.Body)
		if err != nil {
			return execNone, err
		}
		if ctl == execBreak {
			break
		}
	}
	return execNone, nil
}

func (ex *Exec) buffer(v *Var) []float64 {
	if s := ex.slotOf(v); s >= 0 {
		buf := ex.slotMats[s]
		if buf == nil {
			buf = make([]float64, v.Elems())
			ex.slotMats[s] = buf
		}
		return buf
	}
	buf, ok := ex.mats[v]
	if !ok {
		buf = make([]float64, v.Elems())
		if ex.mats == nil {
			ex.mats = make(map[*Var][]float64)
		}
		ex.mats[v] = buf
	}
	return buf
}

// offset resolves 1 or 2 subscripts to a row-major element offset.
func (ex *Exec) offset(v *Var, idx []Expr) (int, error) {
	toInt := func(e Expr) (int, error) {
		// Fast paths for the overwhelmingly common subscript shapes;
		// neither has meter side effects, so skipping eval is exact.
		var f float64
		switch x := e.(type) {
		case *VarRef:
			f = ex.getScalar(x.V)
		case *Const:
			f = x.Val
		default:
			var err error
			f, err = ex.eval(e)
			if err != nil {
				return 0, err
			}
		}
		if k := int(f); float64(k) == f {
			return k, nil
		}
		k := int(math.Round(f))
		if math.Abs(f-float64(k)) > 1e-9 {
			return 0, fmt.Errorf("ir: index %g is not an integer", f)
		}
		return k, nil
	}
	switch len(idx) {
	case 2:
		i, err := toInt(idx[0])
		if err != nil {
			return 0, err
		}
		j, err := toInt(idx[1])
		if err != nil {
			return 0, err
		}
		if i < 1 || i > v.Rows || j < 1 || j > v.Cols {
			return 0, fmt.Errorf("ir: index (%d, %d) out of range for %s", i, j, v)
		}
		return (i-1)*v.Cols + (j - 1), nil
	case 1:
		k, err := toInt(idx[0])
		if err != nil {
			return 0, err
		}
		if k < 1 || k > v.Elems() {
			return 0, fmt.Errorf("ir: linear index %d out of range for %s", k, v)
		}
		// Column-major linear indexing.
		k--
		col := k / v.Rows
		row := k % v.Rows
		return row*v.Cols + col, nil
	}
	return 0, fmt.Errorf("ir: %d subscripts", len(idx))
}

func (ex *Exec) eval(e Expr) (float64, error) {
	switch x := e.(type) {
	case *Const:
		return x.Val, nil
	case *VarRef:
		return ex.getScalar(x.V), nil
	case *Index:
		off, err := ex.offset(x.V, x.Idx)
		if err != nil {
			return 0, err
		}
		if ex.meter != nil {
			ex.meter.Read(x.V)
		}
		return ex.buffer(x.V)[off], nil
	case *Bin:
		// Inline leaf operands (no meter effects, no errors) to skip a
		// recursive dispatch for the most common operand shapes.
		var a, b float64
		switch l := x.X.(type) {
		case *Const:
			a = l.Val
		case *VarRef:
			a = ex.getScalar(l.V)
		default:
			var err error
			a, err = ex.eval(x.X)
			if err != nil {
				return 0, err
			}
		}
		switch r := x.Y.(type) {
		case *Const:
			b = r.Val
		case *VarRef:
			b = ex.getScalar(r.V)
		default:
			var err error
			b, err = ex.eval(x.Y)
			if err != nil {
				return 0, err
			}
		}
		return FoldBin(x.Op, a, b), nil
	case *Un:
		a, err := ex.eval(x.X)
		if err != nil {
			return 0, err
		}
		return FoldUn(x.Op, a), nil
	case *Intrinsic:
		b := scil.LookupBuiltin(x.Name)
		if b == nil {
			return 0, fmt.Errorf("ir: unknown intrinsic %q", x.Name)
		}
		// Arguments in order, first error wins; the array keeps one- and
		// two-argument calls free of allocations.
		var buf [2]float64
		args := buf[:0]
		for _, a := range x.Args {
			v, err := ex.eval(a)
			if err != nil {
				return 0, err
			}
			args = append(args, v)
		}
		return b.Call(args)
	}
	return 0, fmt.Errorf("ir: unknown expression %T", e)
}
