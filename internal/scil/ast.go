package scil

import (
	"fmt"
	"strings"
)

// Program is a parsed scil source unit: an ordered list of function
// definitions. Function names are unique within a program.
type Program struct {
	Funcs []*FuncDecl
}

// Func returns the function named name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FuncDecl is one "function ... endfunction" definition.
type FuncDecl struct {
	Name    string
	Params  []string
	Results []string
	Body    []Stmt
	Pos     Pos
	Pragmas []string // @-pragmas attached immediately before the declaration
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// Expr is an expression node.
type Expr interface {
	exprNode()
	ExprPos() Pos
}

// AssignStmt assigns RHS to one or more left-hand sides. Multi-target
// assignments ([a, b] = f(...)) have len(LHS) > 1 and RHS must be a call.
type AssignStmt struct {
	LHS []*LValue
	RHS Expr
	Pos Pos
}

// LValue is an assignable location: a variable or an indexed element.
type LValue struct {
	Name  string
	Index []Expr // nil for whole-variable assignment
	Pos   Pos
}

// ForStmt is "for v = Lo:Hi" or "for v = Lo:Step:Hi".
type ForStmt struct {
	Var  string
	Lo   Expr
	Step Expr // nil means 1
	Hi   Expr
	Body []Stmt
	Pos  Pos
}

// WhileStmt is a while loop; Bound is the worst-case iteration count from
// the //@bound pragma (0 if absent — rejected later by the WCET pipeline).
type WhileStmt struct {
	Cond  Expr
	Body  []Stmt
	Bound int
	Pos   Pos
}

// IfStmt is an if/elseif/else chain; Elifs are flattened into nested IfStmt
// by the parser, so only Then/Else remain.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// ExprStmt is a bare expression evaluated for effect (typically a call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt skips to the next iteration of the innermost loop.
type ContinueStmt struct{ Pos Pos }

// ReturnStmt returns from the enclosing function; results are the current
// values of the declared result variables.
type ReturnStmt struct{ Pos Pos }

func (*AssignStmt) stmtNode()   {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*ExprStmt) stmtNode()     {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}

// StmtPos returns the statement's source position.
func (s *AssignStmt) StmtPos() Pos   { return s.Pos }
func (s *ForStmt) StmtPos() Pos      { return s.Pos }
func (s *WhileStmt) StmtPos() Pos    { return s.Pos }
func (s *IfStmt) StmtPos() Pos       { return s.Pos }
func (s *ExprStmt) StmtPos() Pos     { return s.Pos }
func (s *BreakStmt) StmtPos() Pos    { return s.Pos }
func (s *ContinueStmt) StmtPos() Pos { return s.Pos }
func (s *ReturnStmt) StmtPos() Pos   { return s.Pos }

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
	Pos   Pos
}

// StringLit is a string literal (used only as arguments to diagnostic
// builtins; strings are not first-class values).
type StringLit struct {
	Value string
	Pos   Pos
}

// Ident is a variable reference.
type Ident struct {
	Name string
	Pos  Pos
}

// CallExpr is f(args) — a user function call, a builtin call, or a matrix
// indexing expression. The checker resolves the distinction (CallKind)
// without writing it into the tree; lowering and the interpreter resolve
// it again from their own scopes.
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

// CallKind classifies a CallExpr after semantic analysis.
type CallKind int

// CallExpr classifications.
const (
	CallUnresolved CallKind = iota
	CallIndex               // matrix indexing a(i,j)
	CallBuiltin             // builtin function
	CallUser                // user-defined function
)

// BinExpr is a binary operation.
type BinExpr struct {
	Op   Kind // PLUS, MINUS, STAR, SLASH, CARET, EQ, NEQ, LT, LE, GT, GE, AND, OR, DOTSTAR, DOTSLASH
	X, Y Expr
	Pos  Pos
}

// UnExpr is unary minus or logical not.
type UnExpr struct {
	Op  Kind // MINUS or NOT
	X   Expr
	Pos Pos
}

// MatrixLit is a [a, b; c, d] literal; Rows is a list of rows of equal width.
type MatrixLit struct {
	Rows [][]Expr
	Pos  Pos
}

// RangeExpr is lo:hi or lo:step:hi appearing outside a for header (it
// evaluates to a row vector).
type RangeExpr struct {
	Lo, Step, Hi Expr // Step nil means 1
	Pos          Pos
}

func (*NumberLit) exprNode() {}
func (*StringLit) exprNode() {}
func (*Ident) exprNode()     {}
func (*CallExpr) exprNode()  {}
func (*BinExpr) exprNode()   {}
func (*UnExpr) exprNode()    {}
func (*MatrixLit) exprNode() {}
func (*RangeExpr) exprNode() {}

// ExprPos returns the expression's source position.
func (e *NumberLit) ExprPos() Pos { return e.Pos }
func (e *StringLit) ExprPos() Pos { return e.Pos }
func (e *Ident) ExprPos() Pos     { return e.Pos }
func (e *CallExpr) ExprPos() Pos  { return e.Pos }
func (e *BinExpr) ExprPos() Pos   { return e.Pos }
func (e *UnExpr) ExprPos() Pos    { return e.Pos }
func (e *MatrixLit) ExprPos() Pos { return e.Pos }
func (e *RangeExpr) ExprPos() Pos { return e.Pos }

// FormatExpr renders an expression as scil source, for diagnostics.
func FormatExpr(e Expr) string {
	var sb strings.Builder
	fmtExpr(&sb, e)
	return sb.String()
}

func fmtExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *NumberLit:
		fmt.Fprintf(sb, "%g", x.Value)
	case *StringLit:
		fmt.Fprintf(sb, "%q", x.Value)
	case *Ident:
		sb.WriteString(x.Name)
	case *CallExpr:
		sb.WriteString(x.Name)
		sb.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmtExpr(sb, a)
		}
		sb.WriteString(")")
	case *BinExpr:
		sb.WriteString("(")
		fmtExpr(sb, x.X)
		sb.WriteString(" " + x.Op.String() + " ")
		fmtExpr(sb, x.Y)
		sb.WriteString(")")
	case *UnExpr:
		sb.WriteString(x.Op.String())
		fmtExpr(sb, x.X)
	case *MatrixLit:
		sb.WriteString("[")
		for i, row := range x.Rows {
			if i > 0 {
				sb.WriteString("; ")
			}
			for j, el := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				fmtExpr(sb, el)
			}
		}
		sb.WriteString("]")
	case *RangeExpr:
		fmtExpr(sb, x.Lo)
		sb.WriteString(":")
		if x.Step != nil {
			fmtExpr(sb, x.Step)
			sb.WriteString(":")
		}
		fmtExpr(sb, x.Hi)
	default:
		sb.WriteString("?expr?")
	}
}
