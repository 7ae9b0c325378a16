package ir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"argo/internal/scil"
)

// The fmt-based renderer AppendDump replaced, kept as the reference its
// output must equal byte for byte (result fingerprints hash the dump).

func refDump(p *Program) string {
	var sb strings.Builder
	f := p.Entry
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, v := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(refVar(v))
	}
	sb.WriteString(") -> (")
	for i, v := range f.Results {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(refVar(v))
	}
	sb.WriteString(")\n")
	refBlock(&sb, f.Body, 1)
	return sb.String()
}

func refVar(v *Var) string {
	if v.Scalar {
		return fmt.Sprintf("%s:scalar", v.Name)
	}
	return fmt.Sprintf("%s:%dx%d@%s", v.Name, v.Rows, v.Cols, v.Storage)
}

func refIndent(sb *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		sb.WriteString("  ")
	}
}

func refBlock(sb *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		refStmt(sb, s, depth)
	}
}

func refStmt(sb *strings.Builder, s Stmt, depth int) {
	refIndent(sb, depth)
	switch st := s.(type) {
	case *AssignScalar:
		fmt.Fprintf(sb, "%s = %s\n", st.Dst.Name, refExpr(st.Src))
	case *Store:
		fmt.Fprintf(sb, "%s[%s] = %s\n", st.Dst.Name, refIdx(st.Idx), refExpr(st.Src))
	case *For:
		fmt.Fprintf(sb, "for %s = %s : %s : %s (trip %d)\n",
			st.IVar.Name, refExpr(st.Lo), refExpr(st.Step), refExpr(st.Hi), st.Trip)
		refBlock(sb, st.Body, depth+1)
		refIndent(sb, depth)
		sb.WriteString("end\n")
	case *While:
		fmt.Fprintf(sb, "while %s (bound %d)\n", refExpr(st.Cond), st.Bound)
		refBlock(sb, st.Body, depth+1)
		refIndent(sb, depth)
		sb.WriteString("end\n")
	case *If:
		fmt.Fprintf(sb, "if %s\n", refExpr(st.Cond))
		refBlock(sb, st.Then, depth+1)
		if len(st.Else) > 0 {
			refIndent(sb, depth)
			sb.WriteString("else\n")
			refBlock(sb, st.Else, depth+1)
		}
		refIndent(sb, depth)
		sb.WriteString("end\n")
	case *Break:
		sb.WriteString("break\n")
	case *Continue:
		sb.WriteString("continue\n")
	default:
		fmt.Fprintf(sb, "?stmt %T\n", s)
	}
}

func refIdx(idx []Expr) string {
	parts := make([]string, len(idx))
	for i, e := range idx {
		parts[i] = refExpr(e)
	}
	return strings.Join(parts, ", ")
}

func refExpr(e Expr) string {
	switch x := e.(type) {
	case *Const:
		return fmt.Sprintf("%g", x.Val)
	case *VarRef:
		return x.V.Name
	case *Index:
		return fmt.Sprintf("%s[%s]", x.V.Name, refIdx(x.Idx))
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", refExpr(x.X), x.Op, refExpr(x.Y))
	case *Un:
		return fmt.Sprintf("%s%s", x.Op, refExpr(x.X))
	case *Intrinsic:
		return fmt.Sprintf("%s(%s)", x.Name, refIdx(x.Args))
	case nil:
		return "<nil>"
	}
	return fmt.Sprintf("?expr %T", e)
}

// checkDump asserts AppendDump, Dump and ExprString against the
// reference renderer, including appending after existing bytes.
func checkDump(t *testing.T, label string, p *Program) {
	t.Helper()
	want := refDump(p)
	if got := p.Dump(); got != want {
		t.Fatalf("%s: Dump differs from the fmt reference\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	if got := string(p.AppendDump([]byte("prefix"))); got != "prefix"+want {
		t.Fatalf("%s: AppendDump does not append to the caller's bytes", label)
	}
	WalkStmts(p.Entry.Body, func(s Stmt) bool {
		for _, e := range StmtExprs(s) {
			if got, want := ExprString(e), refExpr(e); got != want {
				t.Fatalf("%s: ExprString %q, reference %q", label, got, want)
			}
		}
		return true
	})
}

func TestAppendDumpMatchesFmtOnGeneratedPrograms(t *testing.T) {
	cfg := scil.DefaultGenConfig()
	for seed := int64(0); seed < 40; seed++ {
		src := scil.Generate(rand.New(rand.NewSource(seed)), cfg)
		p, err := Lower(src, "fuzz", []ArgSpec{MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		// Every storage class, as par-build's demotions and SPM
		// promotion leave them, renders the same way too.
		for i, v := range p.Vars {
			if !v.Scalar {
				v.Storage = Storage(i % 3)
			}
		}
		checkDump(t, fmt.Sprintf("seed %d", seed), p)
	}
}

type unknownStmt struct{}

func (*unknownStmt) irStmt() {}

type unknownExpr struct{}

func (*unknownExpr) irExpr() {}

func TestAppendDumpMatchesFmtOnEdgeValues(t *testing.T) {
	p := &Program{}
	m := p.NewVar(&Var{Name: "m", Rows: 3, Cols: 4, Storage: StorageSPM, Param: true})
	odd := p.NewVar(&Var{Name: "odd", Rows: 1, Cols: 1, Storage: Storage(7), Result: true})
	x := p.NewVar(&Var{Name: "x", Scalar: true})
	i := p.NewVar(&Var{Name: "i", Scalar: true})
	var body []Stmt
	for _, c := range []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		999999, 1e6, 1e-5, 1e-4, 1e21, 1e20, 0.1, -2.5, 123456789,
		5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308 / 2,
		math.MaxFloat64,
	} {
		body = append(body, &AssignScalar{Dst: x, Src: &Const{Val: c}})
	}
	body = append(body,
		&Store{Dst: m, Idx: []Expr{&VarRef{V: i}, &Const{Val: 2}},
			Src: &Bin{Op: OpPow, X: &Un{Op: OpNeg, X: &Index{V: m, Idx: []Expr{&Const{Val: 7}}}},
				Y: &Intrinsic{Name: "atan", Args: []Expr{&VarRef{V: x}, &Const{Val: -1}}}}},
		&For{IVar: i, Lo: &Const{Val: 1}, Step: &Const{Val: 1}, Hi: &Const{Val: 3}, Trip: 3, Label: "L0",
			Body: []Stmt{
				&While{Cond: &Un{Op: OpNot, X: &Bin{Op: OpLe, X: &VarRef{V: x}, Y: &Const{Val: 0}}}, Bound: 9,
					Body: []Stmt{&Break{}}},
				&If{Cond: &Bin{Op: BinOp(99), X: &VarRef{V: i}, Y: &Intrinsic{Name: "pi"}},
					Then: []Stmt{&Continue{}},
					Else: []Stmt{&AssignScalar{Dst: x, Src: nil}, &unknownStmt{}, nil}},
				&If{Cond: &unknownExpr{}, Then: []Stmt{&Store{Dst: odd, Idx: []Expr{&Const{Val: 1}}, Src: &VarRef{V: x}}}},
			}},
	)
	p.Entry = &Func{Name: "edge", Params: []*Var{m, x}, Results: []*Var{odd}, Body: body}
	checkDump(t, "edge values", p)
}
