// Package vm is a register-based bytecode virtual machine for the ARGO
// IR: Compile lowers an ir.Program once into flat instruction streams
// (register-addressed scalars, direct matrix offsets, fused
// scalar-intrinsic opcodes, structured loops flattened to branches) that
// a Machine then executes per run without any tree dispatch.
//
// The VM is a drop-in replacement for the tree-walking ir.Exec on the
// simulator hot path (internal/sim phase 0 and the experiment sweeps).
// Its contract is bit-identical observable behaviour: for every program
// and input, the VM produces the same results, the same error (message
// included), the same fuel consumption, and — crucially for the
// segment-trace and WCET layers — the same ir.Meter event sequence
// (every Ops/Read/Write call, in order, with the same amounts) as
// ir.Exec. The tree walker stays in place as the differential oracle;
// FuzzVMExec and the internal/sim golden diffs enforce the equivalence
// continuously.
package vm

import (
	"fmt"
	"math"

	"argo/internal/ir"
	"argo/internal/scil"
)

// op enumerates the bytecode instructions.
type op uint8

const (
	opHalt op = iota
	// opConst: regs[a] = consts[b]
	opConst
	// opMov: regs[a] = regs[b]
	opMov
	// Binary operators, one opcode per ir.BinOp and in the same order
	// (expr emits opAdd + op(x.Op)), with ir.FoldBin's exact semantics
	// (comparisons and logic yield 1/0): regs[a] = regs[b] <op> regs[c]
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
	// opNeg / opNot: regs[a] = -regs[b] / regs[a] = (regs[b]==0 ? 1 : 0)
	opNeg
	opNot
	// opIntr1 / opIntr2: fused scalar-intrinsic fast paths mirroring
	// scil.Builtin.Scalar1/2: regs[a] = fns[b].Scalar1(regs[c]) (resp.
	// Scalar2(regs[c], regs[d])).
	opIntr1
	opIntr2
	// opIntrN: boxed builtin call: regs[a] = fns[b].Eval(regs[c..c+d)).
	opIntrN
	// opToInt: regs[a] = float64 of the validated integer index value of
	// regs[b] (tolerant rounding, "not an integer" error) — the toInt
	// step of the tree walker's offset resolution. A subscript keeps its
	// own opToInt only when a later sibling subscript can fail or fire a
	// meter event (see index); otherwise the load, offset op or checked
	// store converts it inline.
	opToInt
	// opLoad1 / opLoad2: matrix element load: tolerant integer
	// conversion of each subscript register (in subscript order), range
	// check, meter.Read: regs[a] = mats[b][offset(regs[c])] (linear,
	// column-major) resp. mats[b][offset(regs[c], regs[d])].
	opLoad1
	opLoad2
	// opIdx1 / opIdx2: validated row-major offset computation (no load),
	// converting subscripts like the loads: regs[a] = offset into mat b
	// from regs[c] (and regs[d]). Used by stores, where the tree walker
	// validates the target offset before evaluating the source.
	opIdx1
	opIdx2
	// opStore: mats[a][int(regs[b])] = regs[c]; meter.Write.
	opStore
	// opBurn: consume one unit of execution fuel (statement entry and
	// while-check charging, exactly as Exec.burn).
	opBurn
	// opOps: meter.Ops(a).
	opOps
	// opJmp: pc = a. opJz: if regs[b] == 0 { pc = a }.
	opJmp
	opJz
	// opLoopPrep: iters[a] = 0 (while-loop entry).
	opLoopPrep
	// opWhileTest: while-loop check for loops[a] on condition regs[b]:
	// exit to c on zero, else count the check against the @bound.
	opWhileTest
	// opErr: return errs[a] (statically known runtime errors: unknown
	// intrinsic, bad subscript arity, unknown statement/expression).
	opErr
	// opForNext: fused for-loop back edge at the bottom of every for
	// body: step the control register triple at b, then run the
	// iteration test for loops[a] — jump to the body start d when
	// continuing, to the exit c when done. One dispatch per iteration
	// instead of a separate step + jump back to the loop entry
	// (opForInit, which handles the first iteration, un-stepped).
	opForNext
	// Superinstructions (see fuseSuper): the four multiply-accumulate
	// shapes fused from an opMul feeding an opAdd or opSub, one dispatch
	// instead of two. The dispatch cases round the product through an
	// explicit float64 conversion so no hardware FMA contraction can
	// occur — results stay bit-identical to the unfused pair (and to the
	// tree walker).
	//
	// opMulAdd: regs[a] = float64(regs[b]*regs[c]) + regs[d]
	// opAddMul: regs[a] = regs[b] + float64(regs[c]*regs[d])
	// opMulSub: regs[a] = float64(regs[b]*regs[c]) - regs[d]
	// opSubMul: regs[a] = regs[b] - float64(regs[c]*regs[d])
	opMulAdd
	opAddMul
	opMulSub
	opSubMul
	// Compare-and-branch (see branchCmps), one opcode per comparison in
	// ir.OpEq … ir.OpGe order: jump to a unless regs[b] <cmp> regs[c].
	// Written as "unless", a NaN operand jumps, exactly as FoldBin's 0.
	opJnEq
	opJnNe
	opJnLt
	opJnLe
	opJnGt
	opJnGe
	// opForInit: for-loop entry for loops[a]: copy the bounds
	// (regs[d], regs[hi], regs[step]) into the control triple (cur, hi,
	// step) at b, b+1, b+2 and fail on a zero step. Then the iteration
	// test: exit to c when cur is past hi, else burn fuel, count the
	// iteration against the static trip bound, publish cur into the
	// induction variable and charge the increment+branch units.
	opForInit
	// opStore1c / opStore2c: checked store, unmetered stream only (see
	// store): convert and range-check the subscripts regs[b] (and
	// regs[c]) like the loads, then mats[a][offset] = regs[d].
	opStore1c
	opStore2c
)

// Burn fusion: opBurn followed by a fusible operation is collapsed by
// fuseBurns into one instruction whose opcode is the base op plus
// burnDelta. The dispatch loop peels the fuel charge off any opcode >=
// burnDelta before the switch, so every case body exists once. All base
// opcodes are < burnDelta.
const burnDelta op = 64

// burnFusible marks the opcodes that may absorb a preceding opBurn:
// operations whose side effects (index conversion and range errors,
// meter events, jumps) happen after the fuel charge in the tree walker
// too (burn at statement entry, then evaluation). A fused jump is still
// a jump: jumpTargets and remapJumps see through burn twins.
var burnFusible = [burnDelta]bool{
	opConst: true, opMov: true,
	opAdd: true, opSub: true, opMul: true, opDiv: true,
	opPow: true, opEq: true, opNe: true, opLt: true, opLe: true,
	opGt: true, opGe: true, opAnd: true, opOr: true,
	opNeg: true, opNot: true,
	opIntr1: true, opIntr2: true,
	opToInt: true, opLoad1: true, opLoad2: true, opIdx1: true, opIdx2: true,
	opLoopPrep: true, opOps: true,
	opMulAdd: true, opAddMul: true, opMulSub: true, opSubMul: true,
	opJnEq: true, opJnNe: true, opJnLt: true, opJnLe: true, opJnGt: true, opJnGe: true,
	opForInit: true, opStore1c: true, opStore2c: true,
}

// instr is one bytecode instruction; operand meaning depends on op.
type instr struct {
	op         op
	a, b, c, d int32
}

// loopInfo is the static side table of one loop in a Code.
type loopInfo struct {
	// ivar is the induction variable's register (for loops; -1 for while).
	ivar int32
	// limit is the static trip count (for) or the @bound (while).
	limit int
	// hi and step are the bound registers an opForInit copies.
	hi, step int32
}

// matInfo is the static side table of one matrix variable.
type matInfo struct {
	v     *ir.Var
	rows  int
	cols  int
	elems int
}

// Code is one compiled statement region (a task region or the whole
// entry body): a flat instruction stream plus its constant pool, loop
// table, and preformatted static errors.
type Code struct {
	ins    []instr
	consts []float64
	loops  []loopInfo
	errs   []error
	// unmetered is the same region compiled for a machine without a
	// meter: no opOps, and checked stores. exec selects it whenever
	// m.meter == nil (the trace-invariant tasks in the simulator).
	unmetered *Code
}

// binding resolves one entry parameter or result: a scalar register or
// a matrix id.
type binding struct {
	scalar bool
	idx    int32 // register (scalar) or matrix id
	v      *ir.Var
}

// Program is a compiled ir.Program: shared register/matrix layout plus
// one Code per compiled region (and optionally the whole entry body).
// A Program is immutable after compilation and safe for concurrent use
// by any number of Machines.
type Program struct {
	ir       *ir.Program
	nRegs    int // scalar variable registers + constants + temporaries
	nVarRegs int
	mats     []matInfo
	fns      []*scil.Builtin
	maxLoops int

	// Constant registers: every literal appearing in an expression gets a
	// dedicated register at constBase+i, preloaded by Machine.Init, so
	// operand positions reference constants with no load instruction.
	constBase int32
	constVals []float64

	entry   *Code
	regions []*Code

	params  []binding
	results []binding
}

// IR returns the source program the code was compiled from.
func (p *Program) IR() *ir.Program { return p.ir }

// NumRegions returns how many regions were compiled.
func (p *Program) NumRegions() int { return len(p.regions) }

// compileLimit caps the register file and instruction stream so a
// pathological program fails to compile instead of exhausting memory.
const compileLimit = 1 << 22

// Compile lowers the program's entry body into bytecode.
func Compile(p *ir.Program) (*Program, error) {
	return compile(p, nil, true)
}

// CompileRegions lowers each statement region into its own Code sharing
// one register/matrix layout, so scalar state flows region to region
// exactly as in one continuous execution (the internal/sim phase-0
// shape: one region per task, executed in graph order). A nil region
// compiles to an empty Code.
func CompileRegions(p *ir.Program, regions [][]ir.Stmt) (*Program, error) {
	return compile(p, regions, false)
}

func compile(p *ir.Program, regions [][]ir.Stmt, entry bool) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				prog, err = nil, error(ce)
				return
			}
			panic(r)
		}
	}()
	c := &compiler{
		prog:     &Program{ir: p},
		varReg:   make(map[*ir.Var]int32),
		matID:    make(map[*ir.Var]int32),
		fnID:     make(map[*scil.Builtin]int32),
		constReg: make(map[uint64]int32),
	}
	// Register every variable the program can touch before any
	// temporaries are numbered: the registered table first (dense,
	// deterministic), then any unregistered stragglers reachable from
	// the entry signature or the compiled statements.
	for _, v := range p.Vars {
		c.regVar(v)
	}
	for _, v := range p.Entry.Params {
		c.regVar(v)
	}
	for _, v := range p.Entry.Results {
		c.regVar(v)
	}
	c.scan(p.Entry.Body)
	for _, r := range regions {
		c.scan(r)
	}
	c.prog.nVarRegs = int(c.nextReg)
	// Constant registers come after the variables and before any
	// temporaries; they must all be assigned before the first compileCode
	// so per-Code temporary watermarks never overlap them.
	c.prog.constBase = c.nextReg
	for _, v := range c.prog.constVals {
		c.constReg[math.Float64bits(v)] = c.nextReg
		c.nextReg++
	}

	if entry {
		c.prog.entry = c.compileCode(p.Entry.Body)
	}
	c.prog.regions = make([]*Code, len(regions))
	for i, r := range regions {
		c.prog.regions[i] = c.compileCode(r)
	}
	c.prog.nRegs = int(c.nextReg) + c.maxTemps
	if c.prog.nRegs > compileLimit {
		return nil, fmt.Errorf("vm: register file too large (%d)", c.prog.nRegs)
	}

	c.prog.params = make([]binding, len(p.Entry.Params))
	for i, v := range p.Entry.Params {
		c.prog.params[i] = c.binding(v)
	}
	c.prog.results = make([]binding, len(p.Entry.Results))
	for i, v := range p.Entry.Results {
		c.prog.results[i] = c.binding(v)
	}
	return c.prog, nil
}

// compileError carries a compilation failure through the recursive
// compiler without error plumbing on every emit.
type compileError error

func fail(format string, args ...any) {
	panic(compileError(fmt.Errorf("vm: "+format, args...)))
}

// compiler holds the cross-region compilation state.
type compiler struct {
	prog     *Program
	varReg   map[*ir.Var]int32
	matID    map[*ir.Var]int32
	fnID     map[*scil.Builtin]int32
	constReg map[uint64]int32 // Float64bits -> constant register
	nextReg  int32

	// Per-Code state. metered selects the stream being compiled: the
	// metered one charges opOps; the unmetered one omits them and may
	// reorder a store (see store).
	metered  bool
	code     *Code
	tempBase int32 // watermark: temporaries live in [nVarRegs+?, tempBase)
	maxTemps int
	nextLoop int32
	// Loop compile context: jump targets for break/continue, patched at
	// loop end; haltJumps are loop-less break/continue jumps patched to
	// the final opHalt (the tree walker's ExecBlock drops the control
	// signal, ending the region).
	loopStack []*loopCtx
	haltJumps []int
	// raw is the instruction buffer every stream is compiled into
	// before fuseBurns copies it out, reused so a region's two streams
	// and the regions after them do not regrow it.
	raw []instr
}

type loopCtx struct {
	breaks    []int // instruction indices whose a-operand jumps to loop exit
	continues []int // ... to the continue point (for: step; while: head)
}

// regVar assigns v its register (scalar) or matrix id (first come).
func (c *compiler) regVar(v *ir.Var) {
	if v == nil {
		return
	}
	if v.Scalar {
		if _, ok := c.varReg[v]; !ok {
			c.varReg[v] = c.nextReg
			c.nextReg++
		}
		return
	}
	if _, ok := c.matID[v]; !ok {
		c.matID[v] = int32(len(c.prog.mats))
		c.prog.mats = append(c.prog.mats, matInfo{v: v, rows: v.Rows, cols: v.Cols, elems: v.Elems()})
	}
}

// scan registers every variable syntactically reachable from stmts and
// records every expression literal's value once (bit-exact dedup), both
// in first-occurrence order. compile numbers the constant registers
// after the scan, behind every variable.
func (c *compiler) scan(stmts []ir.Stmt) {
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.AssignScalar:
			c.regVar(st.Dst)
			c.scanExpr(st.Src)
		case *ir.Store:
			c.regVar(st.Dst)
			for _, ix := range st.Idx {
				c.scanExpr(ix)
			}
			c.scanExpr(st.Src)
		case *ir.For:
			c.regVar(st.IVar)
			c.scanExpr(st.Lo)
			c.scanExpr(st.Step)
			c.scanExpr(st.Hi)
		case *ir.While:
			c.scanExpr(st.Cond)
		case *ir.If:
			c.scanExpr(st.Cond)
		}
		return true
	})
}

func (c *compiler) scanExpr(e ir.Expr) {
	ir.WalkExprs(e, func(sub ir.Expr) {
		switch x := sub.(type) {
		case *ir.VarRef:
			c.regVar(x.V)
		case *ir.Index:
			c.regVar(x.V)
		case *ir.Const:
			bits := math.Float64bits(x.Val)
			if _, ok := c.constReg[bits]; !ok {
				c.constReg[bits] = -1 // numbered after the scan
				c.prog.constVals = append(c.prog.constVals, x.Val)
			}
		}
	})
}

func (c *compiler) binding(v *ir.Var) binding {
	if v.Scalar {
		return binding{scalar: true, idx: c.varReg[v], v: v}
	}
	return binding{scalar: false, idx: c.matID[v], v: v}
}

// --- per-Code compilation ---------------------------------------------------

// compileCode compiles one region twice: the metered stream, and the
// unmetered one a meterless machine runs.
func (c *compiler) compileCode(stmts []ir.Stmt) *Code {
	c.metered = true
	code := c.compileStream(stmts)
	c.metered = false
	code.unmetered = c.compileStream(stmts)
	return code
}

func (c *compiler) compileStream(stmts []ir.Stmt) *Code {
	c.code = &Code{ins: c.raw[:0]}
	c.tempBase = c.nextReg
	c.nextLoop = 0
	c.loopStack = c.loopStack[:0]
	c.haltJumps = c.haltJumps[:0]
	c.block(stmts)
	halt := c.here()
	c.emit(instr{op: opHalt})
	for _, j := range c.haltJumps {
		c.code.ins[j].a = halt
	}
	if len(c.code.ins) > compileLimit {
		fail("instruction stream too large (%d)", len(c.code.ins))
	}
	if int(c.nextLoop) > c.prog.maxLoops {
		c.prog.maxLoops = int(c.nextLoop)
	}
	c.raw = c.code.ins
	return fuseBurns(c.code)
}

// jumpOperands returns pointers to in's absolute jump-target operands,
// seeing through burn twins.
func jumpOperands(in *instr) []*int32 {
	o := in.op
	if o >= burnDelta {
		o -= burnDelta
	}
	switch o {
	case opJmp, opJz, opJnEq, opJnNe, opJnLt, opJnLe, opJnGt, opJnGe:
		return []*int32{&in.a}
	case opWhileTest, opForInit:
		return []*int32{&in.c}
	case opForNext:
		return []*int32{&in.c, &in.d}
	}
	return nil
}

// jumpTargets marks every pc that some instruction jumps to.
func jumpTargets(ins []instr) []bool {
	tgt := make([]bool, len(ins)+1)
	for i := range ins {
		for _, t := range jumpOperands(&ins[i]) {
			tgt[*t] = true
		}
	}
	return tgt
}

// remapJumps rewrites every absolute jump target through remap.
func remapJumps(ins []instr, remap []int32) {
	for i := range ins {
		for _, t := range jumpOperands(&ins[i]) {
			*t = remap[*t]
		}
	}
}

// fuseBurns collapses opBurn + fusible-op pairs into the op's burn twin
// (base op + burnDelta), cutting one dispatch per statement. A pair is
// left alone when the successor is a jump target: a jump landing there
// must execute the op without the fuel charge. Equivalence holds
// because the twin charges fuel (and can exhaust it) before the op's
// own work, exactly as the separate opBurn did.
func fuseBurns(code *Code) *Code {
	tgt := jumpTargets(code.ins)
	ins := make([]instr, 0, len(code.ins))
	remap := make([]int32, len(code.ins))
	for i := 0; i < len(code.ins); i++ {
		remap[i] = int32(len(ins))
		in := code.ins[i]
		if in.op == opBurn && i+1 < len(code.ins) && !tgt[i+1] && burnFusible[code.ins[i+1].op] {
			fused := code.ins[i+1]
			fused.op += burnDelta
			ins = append(ins, fused)
			i++
			remap[i] = int32(len(ins) - 1)
			continue
		}
		ins = append(ins, in)
	}
	remapJumps(ins, remap)
	return &Code{ins: ins, consts: code.consts, loops: code.loops, errs: code.errs}
}

func (c *compiler) emit(in instr) int {
	c.code.ins = append(c.code.ins, in)
	return len(c.code.ins) - 1
}

func (c *compiler) here() int32 { return int32(len(c.code.ins)) }

// temp allocates a temporary register; release by restoring the
// watermark returned by mark().
func (c *compiler) temp() int32 {
	r := c.tempBase
	c.tempBase++
	if n := int(c.tempBase - c.nextReg); n > c.maxTemps {
		c.maxTemps = n
	}
	return r
}

func (c *compiler) mark() int32        { return c.tempBase }
func (c *compiler) release(mark int32) { c.tempBase = mark }

func (c *compiler) constIdx(v float64) int32 {
	// Constant pools are small; bit-exact dedup keeps them smaller.
	for i, x := range c.code.consts {
		if math.Float64bits(x) == math.Float64bits(v) {
			return int32(i)
		}
	}
	c.code.consts = append(c.code.consts, v)
	return int32(len(c.code.consts) - 1)
}

func (c *compiler) errIdx(err error) int32 {
	c.code.errs = append(c.code.errs, err)
	return int32(len(c.code.errs) - 1)
}

func (c *compiler) fn(b *scil.Builtin) int32 {
	if id, ok := c.fnID[b]; ok {
		return id
	}
	id := int32(len(c.prog.fns))
	c.prog.fns = append(c.prog.fns, b)
	c.fnID[b] = id
	return id
}

// ops emits the meter charge n on the metered stream, mirroring
// Exec.ops (no-op when n <= 0).
func (c *compiler) ops(n int) {
	if n > 0 && c.metered {
		c.emit(instr{op: opOps, a: int32(n)})
	}
}

func (c *compiler) block(stmts []ir.Stmt) {
	for _, s := range stmts {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s ir.Stmt) {
	switch st := s.(type) {
	case *ir.AssignScalar:
		c.emit(instr{op: opBurn})
		m := c.mark()
		c.expr(st.Src, c.varReg[st.Dst])
		c.release(m)
		c.ops(ir.ExprOpUnits(st.Src) + 1)
	case *ir.Store:
		c.store(st)
	case *ir.For:
		c.forLoop(st)
	case *ir.While:
		c.whileLoop(st)
	case *ir.If:
		c.ifStmt(st)
	case *ir.Break:
		c.emit(instr{op: opBurn})
		j := c.emit(instr{op: opJmp})
		if n := len(c.loopStack); n > 0 {
			lc := c.loopStack[n-1]
			lc.breaks = append(lc.breaks, j)
		} else {
			c.haltJumps = append(c.haltJumps, j)
		}
	case *ir.Continue:
		c.emit(instr{op: opBurn})
		j := c.emit(instr{op: opJmp})
		if n := len(c.loopStack); n > 0 {
			lc := c.loopStack[n-1]
			lc.continues = append(lc.continues, j)
		} else {
			c.haltJumps = append(c.haltJumps, j)
		}
	default:
		c.emit(instr{op: opBurn})
		c.emit(instr{op: opErr, a: c.errIdx(fmt.Errorf("ir: unknown statement %T", s))})
	}
}

// ifStmt compiles an If. A condition that is one comparison of register
// operands, or an & chain of them, compiles to one conditional jump per
// comparison (compare-and-branch) instead of materializing 1/0 values:
//
//   - Values: a comparison yields 1 or 0, so the chain is nonzero
//     exactly when every comparison holds, and each opJn jumps to the
//     else branch exactly when its comparison's FoldBin value is 0 (a
//     NaN operand included).
//   - Side effects: a register comparison cannot fail and fires no meter
//     event, so skipping the rest of the chain after a failed comparison
//     is unobservable, and the If's opOps charge, which the tree walker
//     makes after evaluating the condition, can move ahead of the first
//     jump.
func (c *compiler) ifStmt(st *ir.If) {
	c.emit(instr{op: opBurn})
	var first, n int // the jumps to the else branch
	if cmps, ok := c.branchCmps(st.Cond, nil); ok {
		c.ops(ir.ExprOpUnits(st.Cond) + 1)
		first, n = len(c.code.ins), len(cmps)
		c.code.ins = append(c.code.ins, cmps...)
	} else {
		m := c.mark()
		cond := c.temp()
		c.expr(st.Cond, cond)
		c.release(m)
		c.ops(ir.ExprOpUnits(st.Cond) + 1)
		first, n = c.emit(instr{op: opJz, b: cond}), 1
	}
	c.block(st.Then)
	elseAt := c.here()
	if len(st.Else) > 0 {
		j := c.emit(instr{op: opJmp})
		elseAt = c.here()
		c.block(st.Else)
		c.code.ins[j].a = c.here()
	}
	for k := first; k < first+n; k++ {
		c.code.ins[k].a = elseAt
	}
}

// branchCmps appends to out the compare-and-branch jumps of cond, in
// evaluation order, and reports whether cond has that shape: one
// comparison of register operands, or an & chain of them.
func (c *compiler) branchCmps(cond ir.Expr, out []instr) ([]instr, bool) {
	x, ok := cond.(*ir.Bin)
	if !ok {
		return out, false
	}
	if x.Op == ir.OpAnd {
		if out, ok = c.branchCmps(x.X, out); !ok {
			return out, false
		}
		return c.branchCmps(x.Y, out)
	}
	if x.Op < ir.OpEq || x.Op > ir.OpGe {
		return out, false
	}
	a, okA := c.reg(x.X)
	b, okB := c.reg(x.Y)
	if !okA || !okB {
		return out, false
	}
	return append(out, instr{op: opJnEq + op(x.Op-ir.OpEq), b: a, c: b}), true
}

// forLoop compiles a For. The loop enters with one opForInit after its
// bounds, in the tree walker's order: evaluate lo, hi and step, charge
// their op units, then check the step and test the first iteration.
// Register bounds forward their home registers with no instruction;
// opForInit copies them into the control triple, because the body may
// reassign the variables they came from.
func (c *compiler) forLoop(st *ir.For) {
	c.emit(instr{op: opBurn})
	base := c.temp() // cur
	hi := c.temp()
	step := c.temp()
	if hi != base+1 || step != base+2 {
		fail("non-contiguous loop registers")
	}
	loop := c.nextLoop
	c.nextLoop++
	m := c.mark()
	loR, hiR, stepR := c.operand(st.Lo), c.operand(st.Hi), c.operand(st.Step)
	c.ops(ir.ExprOpUnits(st.Lo) + ir.ExprOpUnits(st.Hi) + ir.ExprOpUnits(st.Step))
	c.code.loops = append(c.code.loops, loopInfo{ivar: c.varReg[st.IVar], limit: st.Trip, hi: hiR, step: stepR})
	entry := c.emit(instr{op: opForInit, a: loop, b: base, d: loR})
	c.release(m)
	body := c.here()
	lc := &loopCtx{}
	c.loopStack = append(c.loopStack, lc)
	c.block(st.Body)
	c.loopStack = c.loopStack[:len(c.loopStack)-1]
	stepPC := c.here()
	next := c.emit(instr{op: opForNext, a: loop, b: base, d: body})
	exit := c.here()
	c.code.ins[entry].c = exit
	c.code.ins[next].c = exit
	for _, j := range lc.breaks {
		c.code.ins[j].a = exit
	}
	for _, j := range lc.continues {
		c.code.ins[j].a = stepPC
	}
	// The loop control registers stay reserved for the whole loop; free
	// them now.
	c.release(base)
}

func (c *compiler) whileLoop(st *ir.While) {
	c.emit(instr{op: opBurn})
	loop := c.nextLoop
	c.nextLoop++
	c.code.loops = append(c.code.loops, loopInfo{ivar: -1, limit: st.Bound})
	c.emit(instr{op: opLoopPrep, a: loop})
	head := c.here()
	c.emit(instr{op: opBurn}) // per-check fuel, as Exec's while loop
	m := c.mark()
	cond := c.temp()
	c.expr(st.Cond, cond)
	c.release(m)
	c.ops(ir.ExprOpUnits(st.Cond) + 1)
	test := c.emit(instr{op: opWhileTest, a: loop, b: cond})
	lc := &loopCtx{}
	c.loopStack = append(c.loopStack, lc)
	c.block(st.Body)
	c.loopStack = c.loopStack[:len(c.loopStack)-1]
	c.emit(instr{op: opJmp, a: head})
	exit := c.here()
	c.code.ins[test].c = exit
	for _, j := range lc.breaks {
		c.code.ins[j].a = exit
	}
	for _, j := range lc.continues {
		c.code.ins[j].a = head
	}
}

// store compiles a Store. The tree walker resolves the target offset
// (subscript evaluation, conversion, range check), then evaluates the
// source, charges the statement's units and writes. On the unmetered
// stream a store whose source is quiet compiles to a checked store
// instead: the source first, then the subscripts, then one opStore1c or
// opStore2c that converts, range-checks and writes. A quiet source
// cannot fail, fires no meter event and writes no variable register, so
// evaluating it first is unobservable. On the metered stream the
// statement's opOps must come after the offset's errors and before the
// write, which the checked store cannot place.
func (c *compiler) store(st *ir.Store) {
	c.emit(instr{op: opBurn})
	mat, ok := c.matID[st.Dst]
	if !ok {
		fail("store to unregistered matrix %s", st.Dst)
	}
	m := c.mark()
	defer c.release(m)
	if !c.metered && (len(st.Idx) == 1 || len(st.Idx) == 2) && c.quiet(st.Src) {
		src := c.operand(st.Src)
		if len(st.Idx) == 2 {
			i, j := c.indices2(st.Idx)
			c.emit(instr{op: opStore2c, a: mat, b: i, c: j, d: src})
		} else {
			c.emit(instr{op: opStore1c, a: mat, b: c.index(st.Idx[0], false), d: src})
		}
		return
	}
	units := 1 + ir.ExprOpUnits(st.Src)
	for _, ix := range st.Idx {
		units += ir.ExprOpUnits(ix)
	}
	off := c.storeOffset(mat, st.Idx)
	src := c.operand(st.Src)
	c.ops(units)
	c.emit(instr{op: opStore, a: mat, b: off, c: src})
}

// storeOffset compiles the validated target-offset computation of a
// store (index conversion per subscript in evaluation order, then the
// combined range check), returning the register holding the offset.
func (c *compiler) storeOffset(mat int32, idx []ir.Expr) int32 {
	switch len(idx) {
	case 2:
		i, j := c.indices2(idx)
		off := c.temp()
		c.emit(instr{op: opIdx2, a: off, b: mat, c: i, d: j})
		return off
	case 1:
		k := c.index(idx[0], false)
		off := c.temp()
		c.emit(instr{op: opIdx1, a: off, b: mat, c: k})
		return off
	}
	// The tree walker reports bad subscript arity when the statement
	// executes, before evaluating anything.
	c.emit(instr{op: opErr, a: c.errIdx(fmt.Errorf("ir: %d subscripts", len(idx)))})
	return c.temp()
}

// indices2 compiles the two subscripts of a matrix access. The first
// is converted before the second is evaluated only when the second is
// not quiet.
func (c *compiler) indices2(idx []ir.Expr) (i, j int32) {
	i = c.index(idx[0], !c.quiet(idx[1]))
	j = c.index(idx[1], false)
	return i, j
}

// index compiles one subscript expression. Loads, offset ops and
// checked stores apply the tree walker's tolerant integer conversion
// inline, in subscript order, with the same error. So the conversion
// needs its own opToInt only when convert is set: a later sibling
// subscript can fail or fire a meter event, and the tree walker
// converts (and may fail) before evaluating it. Otherwise a register
// operand forwards its home register with no instruction at all, and a
// compound subscript leaves its value unconverted. The inline
// re-conversion of an opToInt result is the identity.
func (c *compiler) index(e ir.Expr, convert bool) int32 {
	src := c.operand(e)
	if !convert {
		return src
	}
	r := c.temp()
	c.emit(instr{op: opToInt, a: r, b: src})
	return r
}

// reg returns the home register of a register operand: a scalar
// variable or a constant.
func (c *compiler) reg(e ir.Expr) (int32, bool) {
	switch x := e.(type) {
	case *ir.VarRef:
		r, ok := c.varReg[x.V]
		return r, ok
	case *ir.Const:
		r, ok := c.constReg[math.Float64bits(x.Val)]
		return r, ok
	}
	return 0, false
}

// quiet reports whether evaluating e can neither fail nor fire a meter
// event: register operands, operators over quiet operands, and the
// Scalar1/Scalar2 fast paths of intrinsics.
func (c *compiler) quiet(e ir.Expr) bool {
	if _, ok := c.reg(e); ok {
		return true
	}
	switch x := e.(type) {
	case *ir.Bin:
		return x.Op >= ir.OpAdd && x.Op <= ir.OpOr && c.quiet(x.X) && c.quiet(x.Y)
	case *ir.Un:
		return c.quiet(x.X)
	case *ir.Intrinsic:
		b := scil.LookupBuiltin(x.Name)
		switch {
		case b == nil:
			return false
		case len(x.Args) == 1 && b.Scalar1 != nil:
			return c.quiet(x.Args[0])
		case len(x.Args) == 2 && b.Scalar2 != nil:
			return c.quiet(x.Args[0]) && c.quiet(x.Args[1])
		}
	}
	return false
}

// operand compiles e as a read-only operand and returns the register
// holding its value: scalar variables and constants forward their home
// register with no instruction at all (the dominant case — this is what
// keeps the dispatch count per statement low); anything else
// materializes into a fresh temporary released by the caller's mark.
// Forwarding is safe because expressions are pure: no instruction
// emitted for a sibling operand can write a variable or constant
// register.
func (c *compiler) operand(e ir.Expr) int32 {
	if r, ok := c.reg(e); ok {
		return r
	}
	r := c.temp()
	c.expr(e, r)
	return r
}

// expr compiles e so its value lands in dst. Temporaries allocated for
// operands are released by the caller's mark.
func (c *compiler) expr(e ir.Expr, dst int32) {
	switch x := e.(type) {
	case *ir.Const:
		c.emit(instr{op: opConst, a: dst, b: c.constIdx(x.Val)})
	case *ir.VarRef:
		c.emit(instr{op: opMov, a: dst, b: c.varReg[x.V]})
	case *ir.Index:
		mat, ok := c.matID[x.V]
		if !ok {
			fail("load from unregistered matrix %s", x.V)
		}
		m := c.mark()
		switch len(x.Idx) {
		case 2:
			i, j := c.indices2(x.Idx)
			c.emit(instr{op: opLoad2, a: dst, b: mat, c: i, d: j})
		case 1:
			c.emit(instr{op: opLoad1, a: dst, b: mat, c: c.index(x.Idx[0], false)})
		default:
			c.emit(instr{op: opErr, a: c.errIdx(fmt.Errorf("ir: %d subscripts", len(x.Idx)))})
		}
		c.release(m)
	case *ir.Bin:
		if c.fuseSuper(x, dst) {
			return
		}
		if x.Op < ir.OpAdd || x.Op > ir.OpOr {
			fail("unknown binary operator %v", x.Op)
		}
		m := c.mark()
		a := c.operand(x.X)
		b := c.operand(x.Y)
		c.emit(instr{op: opAdd + op(x.Op), a: dst, b: a, c: b})
		c.release(m)
	case *ir.Un:
		m := c.mark()
		a := c.operand(x.X)
		if x.Op == ir.OpNeg {
			c.emit(instr{op: opNeg, a: dst, b: a})
		} else {
			c.emit(instr{op: opNot, a: dst, b: a})
		}
		c.release(m)
	case *ir.Intrinsic:
		b := scil.LookupBuiltin(x.Name)
		if b == nil {
			// The tree walker errors at evaluation time, before the
			// arguments are evaluated.
			c.emit(instr{op: opErr, a: c.errIdx(fmt.Errorf("ir: unknown intrinsic %q", x.Name))})
			return
		}
		m := c.mark()
		switch {
		case len(x.Args) == 1 && b.Scalar1 != nil:
			a := c.operand(x.Args[0])
			c.emit(instr{op: opIntr1, a: dst, b: c.fn(b), c: a})
		case len(x.Args) == 2 && b.Scalar2 != nil:
			a := c.operand(x.Args[0])
			bb := c.operand(x.Args[1])
			c.emit(instr{op: opIntr2, a: dst, b: c.fn(b), c: a, d: bb})
		default:
			base := c.tempBase
			for _, arg := range x.Args {
				r := c.temp()
				c.expr(arg, r)
			}
			c.emit(instr{op: opIntrN, a: dst, b: c.fn(b), c: base, d: int32(len(x.Args))})
		}
		c.release(m)
	default:
		c.emit(instr{op: opErr, a: c.errIdx(fmt.Errorf("ir: unknown expression %T", e))})
	}
}

// fuseSuper emits one multiply-accumulate superinstruction for an
// Add/Sub whose X or Y operand is a Mul; reports whether it emitted.
// Equivalence with the unfused opMul + opAdd/opSub pair:
//
//   - Values: the dispatch case rounds the product to float64 through an
//     explicit conversion before the accumulate, the same two-rounding
//     sequence the separate instructions perform (no FMA contraction).
//   - Side-effect order: operands compile in exactly the order the
//     unfused form evaluates them (X's subexpressions, then Y's), so
//     every meter event and every fallible instruction keeps its
//     position. The multiply itself is pure, emits no meter event, and
//     cannot fail, so deferring it into the superinstruction — past the
//     other operand's materialization — is unobservable; the registers
//     it reads are stable because expression code never writes variable
//     or constant home registers and sibling temporaries are fresh.
//   - Fuel and meter charges: per-statement (opBurn, opOps from
//     ExprOpUnits on the IR tree), independent of instruction count.
//   - The elided product register was a pure single-use temporary.
func (c *compiler) fuseSuper(x *ir.Bin, dst int32) bool {
	if x.Op != ir.OpAdd && x.Op != ir.OpSub {
		return false
	}
	if mx, ok := x.X.(*ir.Bin); ok && mx.Op == ir.OpMul {
		o := opMulAdd
		if x.Op == ir.OpSub {
			o = opMulSub
		}
		m := c.mark()
		p := c.operand(mx.X)
		q := c.operand(mx.Y)
		z := c.operand(x.Y)
		c.emit(instr{op: o, a: dst, b: p, c: q, d: z})
		c.release(m)
		c.countFused()
		return true
	}
	if my, ok := x.Y.(*ir.Bin); ok && my.Op == ir.OpMul {
		o := opAddMul
		if x.Op == ir.OpSub {
			o = opSubMul
		}
		m := c.mark()
		z := c.operand(x.X)
		p := c.operand(my.X)
		q := c.operand(my.Y)
		c.emit(instr{op: o, a: dst, b: z, c: p, d: q})
		c.release(m)
		c.countFused()
		return true
	}
	return false
}

// countFused counts one fused site; each region compiles twice, so only
// the metered stream counts.
func (c *compiler) countFused() {
	if c.metered {
		superFused.Add(1)
	}
}
