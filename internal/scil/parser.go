package scil

import (
	"strconv"
	"strings"
	"sync"
)

// Parser builds an AST from scil source. It is a plain recursive-descent
// parser over a pre-lexed token slice.
type Parser struct {
	toks []Token
	i    int
}

// tokenBufs recycles Parse's token buffers. A buffer is cleared before
// it goes back, so the pool keeps no literal, and with it no source,
// alive.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// maxPooledTokens bounds the buffers tokenBufs keeps; a larger one, from
// an outsized source, is left to the collector.
const maxPooledTokens = 1 << 16

// Parse parses a full scil source unit. It lexes the whole source before
// it parses, so a lexical error is reported ahead of any syntax error.
func Parse(src string) (*Program, error) {
	buf := tokenBufs.Get().(*[]Token)
	toks, err := lexInto((*buf)[:0], src)
	var prog *Program
	if err == nil {
		prog, err = (&Parser{toks: toks}).program()
	}
	clear(toks)
	if cap(toks) <= maxPooledTokens {
		*buf = toks[:0]
		tokenBufs.Put(buf)
	}
	return prog, err
}

// program parses the token stream as a source unit.
func (p *Parser) program() (*Program, error) {
	prog := &Program{}
	var pendingPragmas []string
	for {
		p.skipSeps()
		t := p.peek()
		switch t.Kind {
		case EOF:
			if len(prog.Funcs) == 0 {
				return nil, errf(t.Pos, "no function definitions in source")
			}
			return prog, nil
		case PRAGMA:
			pendingPragmas = append(pendingPragmas, t.Lit)
			p.next()
		case KWFUNCTION:
			f, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			f.Pragmas = pendingPragmas
			pendingPragmas = nil
			if prog.Func(f.Name) != nil {
				return nil, errf(f.Pos, "function %q redefined", f.Name)
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, errf(t.Pos, "expected 'function', got %s", t.Kind)
		}
	}
}

func (p *Parser) peek() Token { return p.toks[p.i] }

func (p *Parser) peekAhead(n int) Token {
	j := p.i + n
	if j >= len(p.toks) {
		j = len(p.toks) - 1
	}
	return p.toks[j]
}

func (p *Parser) next() Token {
	t := p.toks[p.i]
	if t.Kind != EOF {
		p.i++
	}
	return t
}

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, got %s %q", k, t.Kind, t.Lit)
	}
	return p.next(), nil
}

// skipSeps consumes newlines and semicolons/commas at statement level.
func (p *Parser) skipSeps() {
	for {
		switch p.peek().Kind {
		case NEWLINE, SEMICOLON, COMMA:
			p.next()
		default:
			return
		}
	}
}

func (p *Parser) skipNewlines() {
	for p.peek().Kind == NEWLINE {
		p.next()
	}
}

// funcDecl parses: function [r1, r2] = name(p1, p2) body endfunction
// or the single-result form: function r = name(args) ... endfunction
// or the no-result form: function name(args) ... endfunction.
func (p *Parser) funcDecl() (*FuncDecl, error) {
	kw, err := p.expect(KWFUNCTION)
	if err != nil {
		return nil, err
	}
	f := &FuncDecl{Pos: kw.Pos}
	switch p.peek().Kind {
	case LBRACKET:
		p.next()
		for {
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			f.Results = append(f.Results, id.Lit)
			if p.peek().Kind == COMMA {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		f.Name = id.Lit
	case IDENT:
		// Either "r = name(...)" or "name(...)": disambiguate on '='.
		first := p.next()
		if p.peek().Kind == ASSIGN {
			p.next()
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			f.Results = []string{first.Lit}
			f.Name = id.Lit
		} else {
			f.Name = first.Lit
		}
	default:
		return nil, errf(p.peek().Pos, "expected function header, got %s", p.peek().Kind)
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	if p.peek().Kind != RPAREN {
		for {
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, id.Lit)
			if p.peek().Kind == COMMA {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.stmtList(KWENDFUNCTION)
	if err != nil {
		return nil, err
	}
	f.Body = body
	if _, err := p.expect(KWENDFUNCTION); err != nil {
		return nil, err
	}
	return f, nil
}

// stmtList parses statements until one of the stop keywords (not consumed).
func (p *Parser) stmtList(stops ...Kind) ([]Stmt, error) {
	isStop := func(k Kind) bool {
		for _, s := range stops {
			if k == s {
				return true
			}
		}
		return false
	}
	var out []Stmt
	var pendingBound int
	for {
		p.skipSeps()
		t := p.peek()
		if t.Kind == EOF {
			return nil, errf(t.Pos, "unexpected end of input (missing 'end'/'endfunction')")
		}
		if isStop(t.Kind) {
			return out, nil
		}
		if t.Kind == PRAGMA {
			p.next()
			if b, ok := parseBoundPragma(t.Lit); ok {
				pendingBound = b
			}
			continue
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if w, ok := s.(*WhileStmt); ok && pendingBound > 0 {
			w.Bound = pendingBound
		}
		pendingBound = 0
		out = append(out, s)
	}
}

// parseBoundPragma parses "@bound N".
func parseBoundPragma(text string) (int, bool) {
	fields := strings.Fields(text)
	if len(fields) != 2 || fields[0] != "@bound" {
		return 0, false
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

func (p *Parser) stmt() (Stmt, error) {
	t := p.peek()
	switch t.Kind {
	case KWFOR:
		return p.forStmt()
	case KWWHILE:
		return p.whileStmt()
	case KWIF:
		return p.ifStmt()
	case KWBREAK:
		p.next()
		return &BreakStmt{Pos: t.Pos}, nil
	case KWCONTINUE:
		p.next()
		return &ContinueStmt{Pos: t.Pos}, nil
	case KWRETURN:
		p.next()
		return &ReturnStmt{Pos: t.Pos}, nil
	case LBRACKET:
		// Could be a multi-assignment "[a,b] = f(...)" — detect by scanning
		// for "] =" with balanced brackets; otherwise it is a matrix-literal
		// expression statement.
		if p.isMultiAssign() {
			return p.multiAssign()
		}
		return p.exprOrAssign()
	default:
		return p.exprOrAssign()
	}
}

// isMultiAssign reports whether the upcoming tokens look like "[i1, i2] =".
func (p *Parser) isMultiAssign() bool {
	j := 1 // past '['
	for {
		t := p.peekAhead(j)
		switch t.Kind {
		case IDENT:
			j++
			if p.peekAhead(j).Kind == COMMA {
				j++
				continue
			}
			if p.peekAhead(j).Kind == RBRACKET {
				return p.peekAhead(j+1).Kind == ASSIGN
			}
			return false
		default:
			return false
		}
	}
}

func (p *Parser) multiAssign() (Stmt, error) {
	lb := p.next() // '['
	var lhs []*LValue
	for {
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		lhs = append(lhs, &LValue{Name: id.Lit, Pos: id.Pos})
		if p.peek().Kind == COMMA {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RBRACKET); err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, ok := rhs.(*CallExpr); !ok {
		return nil, errf(lb.Pos, "multi-assignment right-hand side must be a function call")
	}
	return &AssignStmt{LHS: lhs, RHS: rhs, Pos: lb.Pos}, nil
}

// exprOrAssign parses either "lvalue = expr" or a bare expression statement.
func (p *Parser) exprOrAssign() (Stmt, error) {
	start := p.peek().Pos
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != ASSIGN {
		return &ExprStmt{X: e, Pos: start}, nil
	}
	p.next() // '='
	lv, err := exprToLValue(e)
	if err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: []*LValue{lv}, RHS: rhs, Pos: start}, nil
}

func exprToLValue(e Expr) (*LValue, error) {
	switch x := e.(type) {
	case *Ident:
		return &LValue{Name: x.Name, Pos: x.Pos}, nil
	case *CallExpr:
		return &LValue{Name: x.Name, Index: x.Args, Pos: x.Pos}, nil
	}
	return nil, errf(e.ExprPos(), "invalid assignment target %s", FormatExpr(e))
}

func (p *Parser) forStmt() (Stmt, error) {
	kw := p.next()
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	lo, err := p.exprNoRange()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	mid, err := p.exprNoRange()
	if err != nil {
		return nil, err
	}
	st := &ForStmt{Var: id.Lit, Lo: lo, Hi: mid, Pos: kw.Pos}
	if p.peek().Kind == COLON {
		p.next()
		hi, err := p.exprNoRange()
		if err != nil {
			return nil, err
		}
		st.Step = mid
		st.Hi = hi
	}
	if p.peek().Kind == KWDO {
		p.next()
	}
	body, err := p.stmtList(KWEND)
	if err != nil {
		return nil, err
	}
	st.Body = body
	if _, err := p.expect(KWEND); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) whileStmt() (Stmt, error) {
	kw := p.next()
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if k := p.peek().Kind; k == KWDO || k == KWTHEN {
		p.next()
	}
	body, err := p.stmtList(KWEND)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KWEND); err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: kw.Pos}, nil
}

func (p *Parser) ifStmt() (Stmt, error) {
	kw := p.next() // 'if' or 'elseif'
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if _, err := p.expect(KWTHEN); err != nil {
		return nil, err
	}
	then, err := p.stmtList(KWEND, KWELSE, KWELSEIF)
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: kw.Pos}
	switch p.peek().Kind {
	case KWELSEIF:
		inner, err := p.ifStmt() // consumes through matching 'end'
		if err != nil {
			return nil, err
		}
		st.Else = []Stmt{inner}
		return st, nil
	case KWELSE:
		p.next()
		els, err := p.stmtList(KWEND)
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	if _, err := p.expect(KWEND); err != nil {
		return nil, err
	}
	return st, nil
}

// Expression parsing: precedence climbing.
//
//	or:   |
//	and:  &
//	not:  ~
//	cmp:  == ~= < <= > >=
//	range: lo:hi, lo:step:hi  (only where ranges are allowed)
//	add:  + -
//	mul:  * / .* ./
//	unary: -
//	pow:  ^ (right-assoc)
//	postfix: name(args)
func (p *Parser) expr() (Expr, error) { return p.orExpr(true) }

// exprNoRange parses an expression in a context where ':' has structural
// meaning (for-loop headers), so ranges must be parenthesised.
func (p *Parser) exprNoRange() (Expr, error) { return p.orExpr(false) }

func (p *Parser) orExpr(allowRange bool) (Expr, error) {
	x, err := p.andExpr(allowRange)
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == OR {
		op := p.next()
		y, err := p.andExpr(allowRange)
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Op: OR, X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) andExpr(allowRange bool) (Expr, error) {
	x, err := p.notExpr(allowRange)
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == AND {
		op := p.next()
		y, err := p.notExpr(allowRange)
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Op: AND, X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) notExpr(allowRange bool) (Expr, error) {
	if p.peek().Kind == NOT {
		op := p.next()
		x, err := p.notExpr(allowRange)
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: NOT, X: x, Pos: op.Pos}, nil
	}
	return p.cmpExpr(allowRange)
}

func (p *Parser) cmpExpr(allowRange bool) (Expr, error) {
	x, err := p.rangeExpr(allowRange)
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().Kind
		if k != EQ && k != NEQ && k != LT && k != LE && k != GT && k != GE {
			return x, nil
		}
		op := p.next()
		y, err := p.rangeExpr(allowRange)
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Op: op.Kind, X: x, Y: y, Pos: op.Pos}
	}
}

func (p *Parser) rangeExpr(allowRange bool) (Expr, error) {
	x, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if !allowRange || p.peek().Kind != COLON {
		return x, nil
	}
	pos := p.next().Pos
	mid, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	r := &RangeExpr{Lo: x, Hi: mid, Pos: pos}
	if p.peek().Kind == COLON {
		p.next()
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		r.Step = mid
		r.Hi = hi
	}
	return r, nil
}

func (p *Parser) addExpr() (Expr, error) {
	x, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().Kind
		if k != PLUS && k != MINUS {
			return x, nil
		}
		op := p.next()
		y, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Op: op.Kind, X: x, Y: y, Pos: op.Pos}
	}
}

func (p *Parser) mulExpr() (Expr, error) {
	x, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().Kind
		if k != STAR && k != SLASH && k != DOTSTAR && k != DOTSLASH {
			return x, nil
		}
		op := p.next()
		y, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Op: op.Kind, X: x, Y: y, Pos: op.Pos}
	}
}

func (p *Parser) unaryExpr() (Expr, error) {
	t := p.peek()
	if t.Kind == MINUS {
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: MINUS, X: x, Pos: t.Pos}, nil
	}
	if t.Kind == PLUS {
		p.next()
		return p.unaryExpr()
	}
	return p.powExpr()
}

func (p *Parser) powExpr() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != CARET {
		return x, nil
	}
	op := p.next()
	// Right-associative: exponent may itself be a unary/pow expression.
	y, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	return &BinExpr{Op: CARET, X: x, Y: y, Pos: op.Pos}, nil
}

func (p *Parser) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case NUMBER:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			return nil, errf(t.Pos, "malformed number %q", t.Lit)
		}
		return &NumberLit{Value: v, Pos: t.Pos}, nil
	case STRING:
		p.next()
		return &StringLit{Value: t.Lit, Pos: t.Pos}, nil
	case IDENT:
		p.next()
		if p.peek().Kind != LPAREN {
			return &Ident{Name: t.Lit, Pos: t.Pos}, nil
		}
		p.next() // '('
		var args []Expr
		if p.peek().Kind != RPAREN {
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.peek().Kind == COMMA {
					p.next()
					continue
				}
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &CallExpr{Name: t.Lit, Args: args, Pos: t.Pos}, nil
	case LPAREN:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case LBRACKET:
		return p.matrixLit()
	}
	return nil, errf(t.Pos, "unexpected token %s %q in expression", t.Kind, t.Lit)
}

// matrixLit parses [e, e; e, e]. Rows are separated by ';', elements by ','.
func (p *Parser) matrixLit() (Expr, error) {
	lb := p.next() // '['
	m := &MatrixLit{Pos: lb.Pos}
	if p.peek().Kind == RBRACKET {
		p.next()
		return m, nil // empty matrix
	}
	row := []Expr{}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		row = append(row, e)
		switch p.peek().Kind {
		case COMMA:
			p.next()
		case SEMICOLON:
			p.next()
			m.Rows = append(m.Rows, row)
			row = []Expr{}
		case RBRACKET:
			p.next()
			m.Rows = append(m.Rows, row)
			return m, nil
		default:
			return nil, errf(p.peek().Pos, "expected ',', ';' or ']' in matrix literal, got %s", p.peek().Kind)
		}
	}
}
