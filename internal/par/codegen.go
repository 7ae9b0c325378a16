package par

import (
	"fmt"
	"sort"
	"strings"

	"argo/internal/ir"
)

// EmitC renders the parallel program as C source following the WCET-aware
// programming model: one function per core, explicit signal/wait
// synchronization, DMA staging, static buffer addresses, and the task
// bodies generated from the IR. The output is meant to be read (and fed
// to a target C compiler in the real project); it is also a precise
// record of the memory map and schedule.
func (p *Program) EmitC() string {
	var sb strings.Builder
	sb.WriteString("/* Generated by the ARGO WCET-aware parallelization tool-chain. */\n")
	fmt.Fprintf(&sb, "/* Platform: %s (%d cores) */\n", p.Platform.Name, p.Platform.NumCores())
	fmt.Fprintf(&sb, "/* System WCET bound: %d cycles (+%d prologue, +%d epilogue DMA) */\n\n",
		p.System.Makespan, p.PrologueCycles, p.EpilogueCycles)
	sb.WriteString("#include \"argo_rt.h\" /* argo_wait, argo_signal, argo_dma_in, argo_dma_out, argo_release_at */\n\n")

	// Memory map.
	sb.WriteString("/* ---- memory map ---- */\n")
	bufs := append([]Buffer{}, p.Buffers...)
	sort.Slice(bufs, func(i, j int) bool {
		if bufs[i].Spc != bufs[j].Spc {
			return bufs[i].Spc < bufs[j].Spc
		}
		if bufs[i].Core != bufs[j].Core {
			return bufs[i].Core < bufs[j].Core
		}
		return bufs[i].Addr < bufs[j].Addr
	})
	for _, b := range bufs {
		loc := fmt.Sprintf("SHARED+0x%06x", b.Addr)
		if b.Spc == SpaceSPM {
			loc = fmt.Sprintf("SPM%d+0x%04x", b.Core, b.Addr)
		}
		fmt.Fprintf(&sb, "static double %s[%d][%d]; /* %s, %d bytes */\n",
			cName(b.V.Name), b.V.Rows, b.V.Cols, loc, b.V.SizeBytes())
	}
	statics, locals := p.scalarHomes()
	sb.WriteString("\n/* ---- scalar registers ---- */\n")
	for _, v := range statics {
		fmt.Fprintf(&sb, "static double %s;\n", cName(v.Name))
	}
	sb.WriteString("\n")

	// Task bodies.
	for i, n := range p.Graph.Nodes {
		pl := p.Schedule.Placements[n.ID]
		fmt.Fprintf(&sb, "/* task %d (%s): core %d, window [%d, %d), wcet %d, interference %d */\n",
			n.ID, n.Label, pl.Core, p.System.Start[n.ID], p.System.Finish[n.ID],
			n.WCET[pl.Core], p.System.InterferencePerTask[n.ID])
		fmt.Fprintf(&sb, "static void task_%d(void) {\n", n.ID)
		for _, v := range locals[i] {
			fmt.Fprintf(&sb, "  double %s;\n", cName(v.Name))
		}
		emitStmts(&sb, n.Stmts, 1)
		sb.WriteString("}\n\n")
	}

	// Per-core main functions.
	for c := 0; c < p.Platform.NumCores(); c++ {
		fmt.Fprintf(&sb, "void core_%d_main(void) {\n", c)
		for _, op := range p.DMAIns {
			if op.Core == c {
				fmt.Fprintf(&sb, "  argo_dma_in(%s, %d);\n", cName(op.V.Name), op.Bytes)
			}
		}
		sb.WriteString("  argo_barrier(); /* end of DMA prologue */\n")
		for _, e := range p.CoreEntries[c] {
			switch e.Kind {
			case EntryWait:
				fmt.Fprintf(&sb, "  argo_wait(%d);\n", e.Sig)
			case EntrySignal:
				fmt.Fprintf(&sb, "  argo_signal(%d);\n", e.Sig)
			case EntryCompute:
				fmt.Fprintf(&sb, "  argo_release_at(%d); task_%d();\n", e.Release, e.Task)
			}
		}
		sb.WriteString("  argo_barrier(); /* start of DMA epilogue */\n")
		for _, op := range p.DMAOuts {
			if op.Core == c {
				fmt.Fprintf(&sb, "  argo_dma_out(%s, %d);\n", cName(op.V.Name), op.Bytes)
			}
		}
		sb.WriteString("}\n\n")
	}
	return sb.String()
}

// scalarHomes decides where each scalar is declared. A scalar carries a
// value between tasks when it is an entry parameter or result, or when
// some task may read it before defining it; such scalars, and those no
// task touches, are file-scope statics. Every other scalar is private:
// each task that touches it defines it before any read, so it becomes a
// local of each such task. Unordered tasks on different cores may write
// a private scalar at the same time, which a shared static would turn
// into a data race. locals[i] lists the private scalars of graph node i;
// both lists are in Vars order.
func (p *Program) scalarHomes() (statics []*ir.Var, locals [][]*ir.Var) {
	flows := map[*ir.Var]bool{}
	for _, n := range p.Graph.Nodes {
		defined := ir.DefinedBeforeUse(n.Stmts)
		n.Uses.ScalReads().Each(func(v *ir.Var) bool {
			if !defined.Has(v) {
				flows[v] = true
			}
			return true
		})
	}
	locals = make([][]*ir.Var, len(p.Graph.Nodes))
	for _, v := range p.IR.Vars {
		if !v.Scalar {
			continue
		}
		if v.Param || v.Result || flows[v] {
			statics = append(statics, v)
			continue
		}
		touched := false
		for i, n := range p.Graph.Nodes {
			if n.Uses.ScalReads().Has(v) || n.Uses.ScalWrite().Has(v) {
				locals[i] = append(locals[i], v)
				touched = true
			}
		}
		if !touched {
			statics = append(statics, v)
		}
	}
	return statics, locals
}

// cName sanitizes an IR variable name into a C identifier.
func cName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			sb.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				sb.WriteRune('v')
			}
			sb.WriteRune(r)
		default:
			sb.WriteRune('_')
		}
	}
	return sb.String()
}

func emitStmts(sb *strings.Builder, stmts []ir.Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.AssignScalar:
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, cName(st.Dst.Name), cExpr(st.Src))
		case *ir.Store:
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, cIndex(st.Dst, st.Idx), cExpr(st.Src))
		case *ir.For:
			iv := cName(st.IVar.Name)
			fmt.Fprintf(sb, "%sfor (%s = %s; %s <= %s; %s += %s) { /* trip<=%d */\n",
				ind, iv, cExpr(st.Lo), iv, cExpr(st.Hi), iv, cExpr(st.Step), st.Trip)
			emitStmts(sb, st.Body, depth+1)
			fmt.Fprintf(sb, "%s}\n", ind)
		case *ir.While:
			fmt.Fprintf(sb, "%swhile (%s) { /* bound %d */\n", ind, cExpr(st.Cond), st.Bound)
			emitStmts(sb, st.Body, depth+1)
			fmt.Fprintf(sb, "%s}\n", ind)
		case *ir.If:
			fmt.Fprintf(sb, "%sif (%s) {\n", ind, cExpr(st.Cond))
			emitStmts(sb, st.Then, depth+1)
			if len(st.Else) > 0 {
				fmt.Fprintf(sb, "%s} else {\n", ind)
				emitStmts(sb, st.Else, depth+1)
			}
			fmt.Fprintf(sb, "%s}\n", ind)
		case *ir.Break:
			fmt.Fprintf(sb, "%sbreak;\n", ind)
		case *ir.Continue:
			fmt.Fprintf(sb, "%scontinue;\n", ind)
		}
	}
}

var cOps = map[ir.BinOp]string{
	ir.OpAdd: "+", ir.OpSub: "-", ir.OpMul: "*", ir.OpDiv: "/",
	ir.OpEq: "==", ir.OpNe: "!=", ir.OpLt: "<", ir.OpLe: "<=",
	ir.OpGt: ">", ir.OpGe: ">=", ir.OpAnd: "&&", ir.OpOr: "||",
}

func cExpr(e ir.Expr) string {
	switch x := e.(type) {
	case *ir.Const:
		return fmt.Sprintf("%g", x.Val)
	case *ir.VarRef:
		return cName(x.V.Name)
	case *ir.Index:
		return cIndex(x.V, x.Idx)
	case *ir.Bin:
		if x.Op == ir.OpPow {
			return fmt.Sprintf("pow(%s, %s)", cExpr(x.X), cExpr(x.Y))
		}
		return fmt.Sprintf("(%s %s %s)", cExpr(x.X), cOps[x.Op], cExpr(x.Y))
	case *ir.Un:
		if x.Op == ir.OpNeg {
			return fmt.Sprintf("(-%s)", cExpr(x.X))
		}
		return fmt.Sprintf("(!%s)", cExpr(x.X))
	case *ir.Intrinsic:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = cExpr(a)
		}
		return fmt.Sprintf("argo_%s(%s)", x.Name, strings.Join(args, ", "))
	}
	return "/*?*/0"
}

func cIndex(v *ir.Var, idx []ir.Expr) string {
	if len(idx) == 2 {
		return fmt.Sprintf("%s[(int)(%s) - 1][(int)(%s) - 1]", cName(v.Name), cExpr(idx[0]), cExpr(idx[1]))
	}
	// Column-major linear indexing helper.
	return fmt.Sprintf("ARGO_LIN(%s, %d, %d, (int)(%s))", cName(v.Name), v.Rows, v.Cols, cExpr(idx[0]))
}
