package vm

import (
	"errors"
	"expvar"
	"fmt"
	"math"

	"argo/internal/ir"
	"argo/internal/scil"
)

// errFuel matches the tree walker's budget-exhaustion message.
var errFuel = errors.New("ir: execution budget exhausted")

// Superinstruction observability, served by argod's /debug/vars:
// argo_superinst_fused counts fusions emitted at compile time (one per
// fused site, although both streams fuse it; cold path), and
// argo_superinst_dispatched counts superinstruction executions (batched
// per Machine run and flushed at exec exit, so the hot loop pays one
// field increment, not an atomic).
var (
	superFused      = expvar.NewInt("argo_superinst_fused")
	superDispatched = expvar.NewInt("argo_superinst_dispatched")
)

// SuperCounters returns the cumulative (fused, dispatched) totals.
func SuperCounters() (fused, dispatched int64) {
	return superFused.Value(), superDispatched.Value()
}

// b2f is FoldBin's truth encoding (1/0).
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// offset1 resolves a linear (column-major) subscript value to a
// row-major element offset with the tree walker's semantics
// (Exec.offset): tolerant integer conversion — exact, or within 1e-9
// of an integer — then the range check, each with its error.
func (mt *matInfo) offset1(f float64) (int, error) {
	k, err := toIdx(f)
	if err != nil {
		return 0, err
	}
	if k < 1 || k > mt.elems {
		return 0, fmt.Errorf("ir: linear index %d out of range for %s", k, mt.v)
	}
	k--
	return (k%mt.rows)*mt.cols + k/mt.rows, nil
}

// offset2 is offset1 for a (row, column) pair, converted in order.
func (mt *matInfo) offset2(fi, fj float64) (int, error) {
	i, err := toIdx(fi)
	if err != nil {
		return 0, err
	}
	j, err := toIdx(fj)
	if err != nil {
		return 0, err
	}
	if i < 1 || i > mt.rows || j < 1 || j > mt.cols {
		return 0, fmt.Errorf("ir: index (%d, %d) out of range for %s", i, j, mt.v)
	}
	return (i-1)*mt.cols + (j - 1), nil
}

// fastOffset1 and fastOffset2 are the inlined fast paths of offset1 and
// offset2: exactly integral, in-range subscripts. They report false for
// anything else, which the dispatch cases hand to the full resolution.
func (mt *matInfo) fastOffset1(f float64) (int, bool) {
	k := int(f)
	if float64(k) != f || k < 1 || k > mt.elems {
		return 0, false
	}
	k--
	return (k%mt.rows)*mt.cols + k/mt.rows, true
}

func (mt *matInfo) fastOffset2(fi, fj float64) (int, bool) {
	i, j := int(fi), int(fj)
	if float64(i) != fi || float64(j) != fj || i < 1 || i > mt.rows || j < 1 || j > mt.cols {
		return 0, false
	}
	return (i-1)*mt.cols + (j - 1), true
}

// toIdx is the tree walker's tolerant subscript conversion (toInt in
// Exec.offset).
func toIdx(f float64) (int, error) {
	if k := int(f); float64(k) == f {
		return k, nil
	}
	k := int(math.Round(f))
	if math.Abs(f-float64(k)) > 1e-9 {
		return 0, fmt.Errorf("ir: index %g is not an integer", f)
	}
	return k, nil
}

// Machine executes compiled Programs. It mirrors ir.Exec's lifecycle —
// Init binds arguments and resets state, ExecEntry/ExecRegion run code
// against the current state, Results extracts the entry results — and is
// pooled the same way (Reset rebinds to a new Program). A Machine is not
// safe for concurrent use; the compiled Program it runs is.
type Machine struct {
	prog  *Program
	meter ir.Meter

	regs  []float64
	mats  [][]float64 // live buffers (nil = untouched, reads as zero)
	store [][]float64 // pooled backing buffers, reused across Init calls
	iters []int
	fuel  int

	vals []scil.Value // scratch for boxed intrinsic calls

	// superHits batches superinstruction dispatches and is flushed to
	// argo_superinst_dispatched at exec exit.
	superHits int64
}

// NewMachine returns a machine for prog. meter may be nil.
func NewMachine(prog *Program, meter ir.Meter) *Machine {
	return &Machine{prog: prog, meter: meter}
}

// Reset rebinds the machine to a (possibly different) compiled program
// and clears the meter, so pooled instances can be reused across runs;
// call Init afterwards to bind arguments.
func (m *Machine) Reset(prog *Program) {
	if m.prog != prog {
		m.mats = nil
		m.store = nil
	}
	m.prog = prog
	m.meter = nil
}

// SetMeter swaps the meter (used to meter each task region separately).
func (m *Machine) SetMeter(mt ir.Meter) { m.meter = mt }

// SetFuel overrides the remaining execution budget (ir.ExecFuel after
// Init). Fuzzing uses a small budget to bound adversarial programs.
func (m *Machine) SetFuel(n int) { m.fuel = n }

// Init binds the entry arguments and resets execution state, with
// argument validation identical to ir.Exec.Init.
func (m *Machine) Init(args [][]float64) error {
	f := m.prog.ir.Entry
	if len(args) != len(f.Params) {
		return fmt.Errorf("ir: entry expects %d arguments, got %d", len(f.Params), len(args))
	}
	if cap(m.regs) < m.prog.nRegs {
		m.regs = make([]float64, m.prog.nRegs)
	} else {
		m.regs = m.regs[:m.prog.nRegs]
		clear(m.regs)
	}
	copy(m.regs[m.prog.constBase:], m.prog.constVals)
	nm := len(m.prog.mats)
	if cap(m.mats) < nm {
		m.mats = make([][]float64, nm)
		m.store = make([][]float64, nm)
	} else {
		m.mats = m.mats[:nm]
		m.store = m.store[:nm]
		clear(m.mats)
	}
	if cap(m.iters) < m.prog.maxLoops {
		m.iters = make([]int, m.prog.maxLoops)
	} else {
		m.iters = m.iters[:m.prog.maxLoops]
	}
	m.fuel = ir.ExecFuel
	for i, b := range m.prog.params {
		p := b.v
		if b.scalar {
			if len(args[i]) != 1 {
				return fmt.Errorf("ir: argument %d (%s) must be scalar", i, p.Name)
			}
			m.regs[b.idx] = args[i][0]
		} else {
			if len(args[i]) != p.Elems() {
				return fmt.Errorf("ir: argument %d (%s) must have %d elements, got %d", i, p.Name, p.Elems(), len(args[i]))
			}
			buf := m.freshBuf(b.idx)
			copy(buf, args[i])
		}
	}
	return nil
}

// freshBuf marks matrix id live, reusing its pooled backing buffer. The
// caller either fully overwrites it (Init) or needs zeros (matBuf).
func (m *Machine) freshBuf(id int32) []float64 {
	buf := m.store[id]
	if buf == nil {
		buf = make([]float64, m.prog.mats[id].elems)
		m.store[id] = buf
	}
	m.mats[id] = buf
	return buf
}

// matBuf returns matrix id's live buffer, lazily materializing it as
// zeros (untouched matrices read as zero, as in ir.Exec).
func (m *Machine) matBuf(id int32) []float64 {
	if buf := m.mats[id]; buf != nil {
		return buf
	}
	buf := m.freshBuf(id)
	clear(buf)
	return buf
}

// ExecEntry runs the compiled entry body (Compile).
func (m *Machine) ExecEntry() error {
	if m.prog.entry == nil {
		return errors.New("vm: program has no compiled entry")
	}
	return m.exec(m.prog.entry)
}

// ExecRegion runs compiled region i (CompileRegions).
func (m *Machine) ExecRegion(i int) error {
	return m.exec(m.prog.regions[i])
}

// Results extracts the entry function's results from the current state,
// in declaration order: scalars as 1-element slices, matrices row-major
// copies (zeros if never touched).
func (m *Machine) Results() [][]float64 {
	out := make([][]float64, len(m.prog.results))
	for i, b := range m.prog.results {
		if b.scalar {
			out[i] = []float64{m.regs[b.idx]}
			continue
		}
		buf := m.mats[b.idx]
		cp := make([]float64, m.prog.mats[b.idx].elems)
		copy(cp, buf) // nil buf: stays zero
		out[i] = cp
	}
	return out
}

// ScalarValue exposes the current value of a scalar variable register.
func (m *Machine) ScalarValue(v *ir.Var) float64 {
	for i := range m.prog.params {
		if m.prog.params[i].v == v && m.prog.params[i].scalar {
			return m.regs[m.prog.params[i].idx]
		}
	}
	for i := range m.prog.results {
		if m.prog.results[i].v == v && m.prog.results[i].scalar {
			return m.regs[m.prog.results[i].idx]
		}
	}
	return 0
}

// Run compiles and executes prog's entry in one shot — the VM
// counterpart of ir.NewExec(prog, meter).Run(args).
func Run(prog *ir.Program, meter ir.Meter, args [][]float64) ([][]float64, error) {
	cp, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	m := NewMachine(cp, meter)
	if err := m.Init(args); err != nil {
		return nil, err
	}
	if err := m.ExecEntry(); err != nil {
		return nil, err
	}
	return m.Results(), nil
}

// exec is the dispatch loop. Observable behaviour (results, meter event
// sequence, fuel, error identity) is bit-identical to ir.Exec walking
// the same statements.
func (m *Machine) exec(code *Code) error {
	// Without a meter, run the stream compiled for that case.
	if m.meter == nil {
		code = code.unmetered
	}
	// Fuel lives in a local through the dispatch loop (it is decremented
	// on every statement) and is written back on every exit so it carries
	// across regions.
	fuel, err := m.run(code, m.fuel)
	m.fuel = fuel
	if m.superHits != 0 {
		superDispatched.Add(m.superHits)
		m.superHits = 0
	}
	return err
}

func (m *Machine) run(code *Code, fuel int) (int, error) {
	ins := code.ins
	consts := code.consts
	regs := m.regs
	fns := m.prog.fns
	mats := m.mats
	iters := m.iters
	meter := m.meter
	pc := 0
	for {
		in := ins[pc]
		pc++
		o := in.op
		// Burn twins (fuseBurns): charge the statement's fuel, then fall
		// through to the base opcode's one case body.
		if o >= burnDelta {
			fuel--
			if fuel <= 0 {
				return fuel, errFuel
			}
			o -= burnDelta
		}
		switch o {
		case opHalt:
			return fuel, nil
		case opConst:
			regs[in.a] = consts[in.b]
		case opMov:
			regs[in.a] = regs[in.b]
		case opAdd:
			regs[in.a] = regs[in.b] + regs[in.c]
		case opSub:
			regs[in.a] = regs[in.b] - regs[in.c]
		case opMul:
			regs[in.a] = regs[in.b] * regs[in.c]
		case opDiv:
			regs[in.a] = regs[in.b] / regs[in.c]
		case opPow:
			regs[in.a] = math.Pow(regs[in.b], regs[in.c])
		case opEq:
			regs[in.a] = b2f(regs[in.b] == regs[in.c])
		case opNe:
			regs[in.a] = b2f(regs[in.b] != regs[in.c])
		case opLt:
			regs[in.a] = b2f(regs[in.b] < regs[in.c])
		case opLe:
			regs[in.a] = b2f(regs[in.b] <= regs[in.c])
		case opGt:
			regs[in.a] = b2f(regs[in.b] > regs[in.c])
		case opGe:
			regs[in.a] = b2f(regs[in.b] >= regs[in.c])
		case opAnd:
			regs[in.a] = b2f(regs[in.b] != 0 && regs[in.c] != 0)
		case opOr:
			regs[in.a] = b2f(regs[in.b] != 0 || regs[in.c] != 0)
		case opNeg:
			regs[in.a] = -regs[in.b]
		case opNot:
			if regs[in.b] == 0 {
				regs[in.a] = 1
			} else {
				regs[in.a] = 0
			}
		case opIntr1:
			regs[in.a] = fns[in.b].Scalar1(regs[in.c])
		case opIntr2:
			regs[in.a] = fns[in.b].Scalar2(regs[in.c], regs[in.d])
		case opIntrN:
			vals := m.vals[:0]
			for i := int32(0); i < in.d; i++ {
				vals = append(vals, scil.Scalar(regs[in.c+i]))
			}
			m.vals = vals
			v, err := fns[in.b].Eval(vals)
			if err != nil {
				return fuel, err
			}
			regs[in.a] = v.ScalarVal()
		case opToInt:
			f := regs[in.b]
			if k := int(f); float64(k) == f {
				regs[in.a] = float64(k)
			} else {
				k, err := toIdx(f)
				if err != nil {
					return fuel, err
				}
				regs[in.a] = float64(k)
			}
		case opLoad1:
			mt := &m.prog.mats[in.b]
			off, ok := mt.fastOffset1(regs[in.c])
			if !ok {
				var err error
				if off, err = mt.offset1(regs[in.c]); err != nil {
					return fuel, err
				}
			}
			if meter != nil {
				meter.Read(mt.v)
			}
			buf := mats[in.b]
			if buf == nil {
				buf = m.matBuf(in.b)
			}
			regs[in.a] = buf[off]
		case opLoad2:
			mt := &m.prog.mats[in.b]
			off, ok := mt.fastOffset2(regs[in.c], regs[in.d])
			if !ok {
				var err error
				if off, err = mt.offset2(regs[in.c], regs[in.d]); err != nil {
					return fuel, err
				}
			}
			if meter != nil {
				meter.Read(mt.v)
			}
			buf := mats[in.b]
			if buf == nil {
				buf = m.matBuf(in.b)
			}
			regs[in.a] = buf[off]
		case opIdx1:
			mt := &m.prog.mats[in.b]
			off, ok := mt.fastOffset1(regs[in.c])
			if !ok {
				var err error
				if off, err = mt.offset1(regs[in.c]); err != nil {
					return fuel, err
				}
			}
			regs[in.a] = float64(off)
		case opIdx2:
			mt := &m.prog.mats[in.b]
			off, ok := mt.fastOffset2(regs[in.c], regs[in.d])
			if !ok {
				var err error
				if off, err = mt.offset2(regs[in.c], regs[in.d]); err != nil {
					return fuel, err
				}
			}
			regs[in.a] = float64(off)
		case opStore:
			buf := mats[in.a]
			if buf == nil {
				buf = m.matBuf(in.a)
			}
			buf[int(regs[in.b])] = regs[in.c]
			if meter != nil {
				meter.Write(m.prog.mats[in.a].v)
			}
		case opStore1c:
			// Unmetered stream only: no meter.Write.
			mt := &m.prog.mats[in.a]
			off, ok := mt.fastOffset1(regs[in.b])
			if !ok {
				var err error
				if off, err = mt.offset1(regs[in.b]); err != nil {
					return fuel, err
				}
			}
			buf := mats[in.a]
			if buf == nil {
				buf = m.matBuf(in.a)
			}
			buf[off] = regs[in.d]
		case opStore2c:
			// Unmetered stream only: no meter.Write.
			mt := &m.prog.mats[in.a]
			off, ok := mt.fastOffset2(regs[in.b], regs[in.c])
			if !ok {
				var err error
				if off, err = mt.offset2(regs[in.b], regs[in.c]); err != nil {
					return fuel, err
				}
			}
			buf := mats[in.a]
			if buf == nil {
				buf = m.matBuf(in.a)
			}
			buf[off] = regs[in.d]
		case opBurn:
			fuel--
			if fuel <= 0 {
				return fuel, errFuel
			}
		case opOps:
			if meter != nil {
				meter.Ops(int(in.a))
			}
		case opJmp:
			pc = int(in.a)
		case opJz:
			if regs[in.b] == 0 {
				pc = int(in.a)
			}
		case opJnEq:
			if regs[in.b] != regs[in.c] {
				pc = int(in.a)
			}
		case opJnNe:
			if regs[in.b] == regs[in.c] {
				pc = int(in.a)
			}
		case opJnLt:
			if !(regs[in.b] < regs[in.c]) {
				pc = int(in.a)
			}
		case opJnLe:
			if !(regs[in.b] <= regs[in.c]) {
				pc = int(in.a)
			}
		case opJnGt:
			if !(regs[in.b] > regs[in.c]) {
				pc = int(in.a)
			}
		case opJnGe:
			if !(regs[in.b] >= regs[in.c]) {
				pc = int(in.a)
			}
		case opLoopPrep:
			iters[in.a] = 0
		case opForInit:
			li := &code.loops[in.a]
			v, hi, step := regs[in.d], regs[li.hi], regs[li.step]
			regs[in.b], regs[in.b+1], regs[in.b+2] = v, hi, step
			iters[in.a] = 0
			if step == 0 {
				return fuel, errors.New("ir: for loop with zero step")
			}
			if !((step > 0 && v <= hi+1e-12) || (step < 0 && v >= hi-1e-12)) {
				pc = int(in.c)
				continue
			}
			fuel--
			if fuel <= 0 {
				return fuel, errFuel
			}
			iters[in.a]++
			if iters[in.a] > li.limit {
				return fuel, fmt.Errorf("ir: for loop exceeded its static trip count %d", li.limit)
			}
			regs[li.ivar] = v
			if meter != nil {
				meter.Ops(2) // increment + branch
			}
		case opForNext:
			regs[in.b] += regs[in.b+2]
			v, hi, step := regs[in.b], regs[in.b+1], regs[in.b+2]
			if !((step > 0 && v <= hi+1e-12) || (step < 0 && v >= hi-1e-12)) {
				pc = int(in.c)
				continue
			}
			fuel--
			if fuel <= 0 {
				return fuel, errFuel
			}
			li := &code.loops[in.a]
			iters[in.a]++
			if iters[in.a] > li.limit {
				return fuel, fmt.Errorf("ir: for loop exceeded its static trip count %d", li.limit)
			}
			regs[li.ivar] = v
			if meter != nil {
				meter.Ops(2) // increment + branch
			}
			pc = int(in.d)
		case opWhileTest:
			if regs[in.b] == 0 {
				pc = int(in.c)
				continue
			}
			li := &code.loops[in.a]
			if iters[in.a] >= li.limit {
				return fuel, fmt.Errorf("ir: while loop exceeded its @bound %d", li.limit)
			}
			iters[in.a]++
		case opMulAdd:
			// Explicit float64 conversion: the Go spec makes it round the
			// product, which forbids FMA contraction — two roundings,
			// exactly as the unfused opMul + opAdd pair (bit-identity with
			// the tree walker). Same in the three cases below.
			regs[in.a] = float64(regs[in.b]*regs[in.c]) + regs[in.d]
			m.superHits++
		case opAddMul:
			regs[in.a] = regs[in.b] + float64(regs[in.c]*regs[in.d])
			m.superHits++
		case opMulSub:
			regs[in.a] = float64(regs[in.b]*regs[in.c]) - regs[in.d]
			m.superHits++
		case opSubMul:
			regs[in.a] = regs[in.b] - float64(regs[in.c]*regs[in.d])
			m.superHits++
		case opErr:
			return fuel, code.errs[in.a]
		default:
			return fuel, fmt.Errorf("vm: bad opcode %d", in.op)
		}
	}
}
