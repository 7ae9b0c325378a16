package scil

import (
	"strings"
	"unicode"
)

// This file keeps the rune-slice lexer that lexer.go replaced, as a
// reference: TestLexMatchesReference and FuzzParseSCIL compare the lexer
// with it token for token. It reads a NUL as the end of the input,
// which the lexer no longer does, so the comparisons skip inputs that
// contain one.

// ReferenceLexAll tokenizes src with the reference lexer, the way
// LexAll does with the lexer.
func ReferenceLexAll(src string) ([]Token, error) {
	l := &refLexer{src: []rune(src), line: 1, col: 1}
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

type refLexer struct {
	src  []rune
	off  int
	line int
	col  int
}

func refIdentStart(r rune) bool { return r == '_' || r == '%' || unicode.IsLetter(r) }
func refIdentCont(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

func (l *refLexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *refLexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) peek2() rune {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *refLexer) advance() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r := l.src[l.off]
	l.off++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// Next returns the next token, or an error for malformed input.
func (l *refLexer) Next() (Token, error) {
	for {
		r := l.peek()
		if r == 0 {
			return Token{Kind: EOF, Pos: l.pos()}, nil
		}
		// Line continuation: ".." or "..." before a newline.
		if r == '.' && l.peek2() == '.' {
			start := l.pos()
			for l.peek() == '.' {
				l.advance()
			}
			for l.peek() == ' ' || l.peek() == '\t' || l.peek() == '\r' {
				l.advance()
			}
			if l.peek() == '\n' {
				l.advance()
				continue
			}
			return Token{}, errf(start, "stray '..' (line continuation must end the line)")
		}
		switch {
		case r == ' ' || r == '\t' || r == '\r':
			l.advance()
			continue
		case r == '\n':
			p := l.pos()
			l.advance()
			return Token{Kind: NEWLINE, Lit: "\n", Pos: p}, nil
		case r == '/' && l.peek2() == '/':
			p := l.pos()
			l.advance()
			l.advance()
			var sb strings.Builder
			for l.peek() != '\n' && l.peek() != 0 {
				sb.WriteRune(l.advance())
			}
			text := strings.TrimSpace(sb.String())
			if strings.HasPrefix(text, "@") {
				return Token{Kind: PRAGMA, Lit: text, Pos: p}, nil
			}
			continue // plain comment
		case refIdentStart(r):
			p := l.pos()
			var sb strings.Builder
			for refIdentCont(l.peek()) || l.peek() == '%' {
				sb.WriteRune(l.advance())
			}
			id := sb.String()
			if k, ok := keywords[id]; ok {
				return Token{Kind: k, Lit: id, Pos: p}, nil
			}
			return Token{Kind: IDENT, Lit: id, Pos: p}, nil
		case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.peek2())):
			return l.number()
		case r == '"' || r == '\'':
			return l.str(r)
		}
		p := l.pos()
		l.advance()
		two := func(k Kind, lit string) (Token, error) {
			l.advance()
			return Token{Kind: k, Lit: lit, Pos: p}, nil
		}
		switch r {
		case '(':
			return Token{Kind: LPAREN, Lit: "(", Pos: p}, nil
		case ')':
			return Token{Kind: RPAREN, Lit: ")", Pos: p}, nil
		case '[':
			return Token{Kind: LBRACKET, Lit: "[", Pos: p}, nil
		case ']':
			return Token{Kind: RBRACKET, Lit: "]", Pos: p}, nil
		case ',':
			return Token{Kind: COMMA, Lit: ",", Pos: p}, nil
		case ';':
			return Token{Kind: SEMICOLON, Lit: ";", Pos: p}, nil
		case ':':
			return Token{Kind: COLON, Lit: ":", Pos: p}, nil
		case '+':
			return Token{Kind: PLUS, Lit: "+", Pos: p}, nil
		case '-':
			return Token{Kind: MINUS, Lit: "-", Pos: p}, nil
		case '*':
			return Token{Kind: STAR, Lit: "*", Pos: p}, nil
		case '/':
			return Token{Kind: SLASH, Lit: "/", Pos: p}, nil
		case '^':
			return Token{Kind: CARET, Lit: "^", Pos: p}, nil
		case '&':
			return Token{Kind: AND, Lit: "&", Pos: p}, nil
		case '|':
			return Token{Kind: OR, Lit: "|", Pos: p}, nil
		case '.':
			if l.peek() == '*' {
				return two(DOTSTAR, ".*")
			}
			if l.peek() == '/' {
				return two(DOTSLASH, "./")
			}
			return Token{}, errf(p, "unexpected '.'")
		case '=':
			if l.peek() == '=' {
				return two(EQ, "==")
			}
			return Token{Kind: ASSIGN, Lit: "=", Pos: p}, nil
		case '~':
			if l.peek() == '=' {
				return two(NEQ, "~=")
			}
			return Token{Kind: NOT, Lit: "~", Pos: p}, nil
		case '<':
			if l.peek() == '=' {
				return two(LE, "<=")
			}
			if l.peek() == '>' {
				return two(NEQ, "<>")
			}
			return Token{Kind: LT, Lit: "<", Pos: p}, nil
		case '>':
			if l.peek() == '=' {
				return two(GE, ">=")
			}
			return Token{Kind: GT, Lit: ">", Pos: p}, nil
		}
		return Token{}, errf(p, "unexpected character %q", string(r))
	}
}

func (l *refLexer) number() (Token, error) {
	p := l.pos()
	var sb strings.Builder
	for unicode.IsDigit(l.peek()) {
		sb.WriteRune(l.advance())
	}
	if l.peek() == '.' && l.peek2() != '*' && l.peek2() != '/' && l.peek2() != '.' {
		sb.WriteRune(l.advance())
		for unicode.IsDigit(l.peek()) {
			sb.WriteRune(l.advance())
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' || l.peek() == 'd' || l.peek() == 'D' {
		// Scilab uses both e and d exponent markers.
		saveOff, saveLine, saveCol := l.off, l.line, l.col
		mark := sb.Len()
		sb.WriteRune('e')
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			sb.WriteRune(l.advance())
		}
		if !unicode.IsDigit(l.peek()) {
			// Not an exponent after all (e.g. "4end"): rewind.
			l.off, l.line, l.col = saveOff, saveLine, saveCol
			return Token{Kind: NUMBER, Lit: sb.String()[:mark], Pos: p}, nil
		}
		for unicode.IsDigit(l.peek()) {
			sb.WriteRune(l.advance())
		}
	}
	return Token{Kind: NUMBER, Lit: sb.String(), Pos: p}, nil
}

func (l *refLexer) str(quote rune) (Token, error) {
	p := l.pos()
	l.advance() // opening quote
	var sb strings.Builder
	for {
		r := l.peek()
		if r == 0 || r == '\n' {
			return Token{}, errf(p, "unterminated string literal")
		}
		l.advance()
		if r == quote {
			if l.peek() == quote { // doubled quote escapes itself
				sb.WriteRune(quote)
				l.advance()
				continue
			}
			return Token{Kind: STRING, Lit: sb.String(), Pos: p}, nil
		}
		sb.WriteRune(r)
	}
}
