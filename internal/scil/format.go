package scil

import (
	"crypto/sha256"
	"hash"
	"strconv"
)

// Format renders a program back to canonical scil source. The output
// round-trips: Parse(Format(p)) produces a structurally identical AST
// (modulo positions). Used by tooling (the cross-layer interface shows
// users the model the compiler actually sees) and tested as a
// parser/printer consistency property.
func Format(p *Program) string {
	var pr printer
	pr.program(p)
	return string(pr.buf)
}

// Digest is the SHA-256 of Format(p), streamed into the hash without
// building the text. Comments and layout leave no trace in the AST, so
// sources that differ only in them share one digest: it content-addresses
// the program a source denotes, not the source.
func Digest(p *Program) [sha256.Size]byte {
	h := sha256.New()
	pr := printer{w: h, buf: make([]byte, 0, printerFlushAt+256)}
	pr.program(p)
	pr.flush()
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// printerFlushAt is the buffered length past which a streaming printer
// hands its text to the hash, at the end of a line.
const printerFlushAt = 2048

// printer appends canonical source to buf. With a hash set it hands buf
// to the hash at line ends once it has grown past printerFlushAt;
// without one, buf collects the whole text.
type printer struct {
	w   hash.Hash
	buf []byte
}

func (pr *printer) str(s string) { pr.buf = append(pr.buf, s...) }

func (pr *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		pr.buf = append(pr.buf, "  "...)
	}
}

// endLine terminates a line and flushes a streaming printer that has
// buffered enough.
func (pr *printer) endLine() {
	pr.buf = append(pr.buf, '\n')
	if pr.w != nil && len(pr.buf) >= printerFlushAt {
		pr.flush()
	}
}

func (pr *printer) flush() {
	if pr.w != nil && len(pr.buf) > 0 {
		pr.w.Write(pr.buf) // a hash's Write never returns an error
		pr.buf = pr.buf[:0]
	}
}

func (pr *printer) program(p *Program) {
	for i, f := range p.Funcs {
		if i > 0 {
			pr.endLine()
		}
		pr.funcDecl(f)
	}
}

// names writes names separated by ", ".
func (pr *printer) names(names []string) {
	for i, n := range names {
		if i > 0 {
			pr.str(", ")
		}
		pr.str(n)
	}
}

func (pr *printer) funcDecl(f *FuncDecl) {
	for _, prag := range f.Pragmas {
		pr.str("//")
		pr.str(prag)
		pr.endLine()
	}
	pr.str("function ")
	switch len(f.Results) {
	case 0:
	case 1:
		pr.str(f.Results[0])
		pr.str(" = ")
	default:
		pr.str("[")
		pr.names(f.Results)
		pr.str("] = ")
	}
	pr.str(f.Name)
	pr.str("(")
	pr.names(f.Params)
	pr.str(")")
	pr.endLine()
	pr.block(f.Body, 1)
	pr.str("endfunction")
	pr.endLine()
}

func (pr *printer) block(stmts []Stmt, depth int) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignStmt:
			pr.indent(depth)
			if len(st.LHS) > 1 {
				pr.str("[")
				for i, lv := range st.LHS {
					if i > 0 {
						pr.str(", ")
					}
					pr.str(lv.Name)
				}
				pr.str("]")
			} else {
				lv := st.LHS[0]
				pr.str(lv.Name)
				if lv.Index != nil {
					pr.str("(")
					pr.exprs(lv.Index)
					pr.str(")")
				}
			}
			pr.str(" = ")
			pr.expr(st.RHS)
			pr.endLine()
		case *ForStmt:
			pr.indent(depth)
			pr.str("for ")
			pr.str(st.Var)
			pr.str(" = ")
			pr.expr(st.Lo)
			pr.str(":")
			if st.Step != nil {
				pr.expr(st.Step)
				pr.str(":")
			}
			pr.expr(st.Hi)
			pr.endLine()
			pr.block(st.Body, depth+1)
			pr.end(depth)
		case *WhileStmt:
			if st.Bound > 0 {
				pr.indent(depth)
				pr.str("//@bound ")
				pr.buf = strconv.AppendInt(pr.buf, int64(st.Bound), 10)
				pr.endLine()
			}
			pr.indent(depth)
			pr.str("while ")
			pr.expr(st.Cond)
			pr.endLine()
			pr.block(st.Body, depth+1)
			pr.end(depth)
		case *IfStmt:
			pr.indent(depth)
			pr.str("if ")
			pr.expr(st.Cond)
			pr.str(" then")
			pr.endLine()
			pr.block(st.Then, depth+1)
			pr.elseChain(st.Else, depth)
			pr.end(depth)
		case *ExprStmt:
			pr.indent(depth)
			pr.expr(st.X)
			pr.endLine()
		case *BreakStmt:
			pr.keyword("break", depth)
		case *ContinueStmt:
			pr.keyword("continue", depth)
		case *ReturnStmt:
			pr.keyword("return", depth)
		}
	}
}

// keyword writes a line holding one keyword.
func (pr *printer) keyword(kw string, depth int) {
	pr.indent(depth)
	pr.str(kw)
	pr.endLine()
}

func (pr *printer) end(depth int) { pr.keyword("end", depth) }

// elseChain renders else / elseif chains without extra nesting.
func (pr *printer) elseChain(els []Stmt, depth int) {
	if len(els) == 0 {
		return
	}
	if len(els) == 1 {
		if inner, ok := els[0].(*IfStmt); ok {
			pr.indent(depth)
			pr.str("elseif ")
			pr.expr(inner.Cond)
			pr.str(" then")
			pr.endLine()
			pr.block(inner.Then, depth+1)
			pr.elseChain(inner.Else, depth)
			return
		}
	}
	pr.keyword("else", depth)
	pr.block(els, depth+1)
}

// exprs writes expressions separated by ", ".
func (pr *printer) exprs(es []Expr) {
	for i, e := range es {
		if i > 0 {
			pr.str(", ")
		}
		pr.expr(e)
	}
}

// expr writes e fully parenthesized: every binary operation, every
// unary operand and every range nested in a larger expression, so the
// text re-parses to the same tree whatever the precedence rules.
func (pr *printer) expr(e Expr) {
	switch x := e.(type) {
	case *NumberLit:
		pr.buf = strconv.AppendFloat(pr.buf, x.Value, 'g', -1, 64)
	case *StringLit:
		pr.buf = strconv.AppendQuote(pr.buf, x.Value)
	case *Ident:
		pr.str(x.Name)
	case *CallExpr:
		pr.str(x.Name)
		pr.str("(")
		pr.exprs(x.Args)
		pr.str(")")
	case *BinExpr:
		pr.str("(")
		pr.expr(x.X)
		pr.str(" ")
		pr.str(x.Op.String())
		pr.str(" ")
		pr.expr(x.Y)
		pr.str(")")
	case *UnExpr:
		pr.str(x.Op.String())
		pr.str("(")
		pr.expr(x.X)
		pr.str(")")
	case *MatrixLit:
		pr.str("[")
		for i, row := range x.Rows {
			if i > 0 {
				pr.str("; ")
			}
			pr.exprs(row)
		}
		pr.str("]")
	case *RangeExpr:
		pr.str("(")
		pr.expr(x.Lo)
		pr.str(":")
		if x.Step != nil {
			pr.expr(x.Step)
			pr.str(":")
		}
		pr.expr(x.Hi)
		pr.str(")")
	default:
		pr.str("?")
	}
}
