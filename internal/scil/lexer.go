package scil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer tokenizes scil source text. It is resumable: Next returns tokens
// one at a time and EOF forever after the input is exhausted.
//
// It reads the source's bytes in place. An identifier, a number, a
// string and a pragma are slices of the source wherever the source
// spells them as they are, so only a literal that is rewritten (an
// exponent marker other than 'e', a doubled quote, invalid UTF-8 in a
// string or a pragma) costs an allocation. A byte that is not valid
// UTF-8 reads as one utf8.RuneError, as it does in a range loop, and
// columns count runes.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

// peek returns the next rune, or 0 at the end of the input. A NUL byte
// reads 0 too: only the offset tells the end of the input.
func (l *Lexer) peek() rune {
	r, _ := l.runeAt(l.off)
	return r
}

// peek2 returns the rune after the next one.
func (l *Lexer) peek2() rune {
	_, w := l.runeAt(l.off)
	r, _ := l.runeAt(l.off + w)
	return r
}

// runeAt returns the rune that starts at byte i and its width, or 0
// and 0 at the end of the input.
func (l *Lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *Lexer) advance() rune {
	r, w := l.runeAt(l.off)
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else if w > 0 {
		l.col++
	}
	return r
}

func isIdentStart(r rune) bool { return r == '_' || r == '%' || unicode.IsLetter(r) }
func isIdentCont(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	for {
		if l.off >= len(l.src) {
			return Token{Kind: EOF, Pos: l.pos()}, nil
		}
		r := l.peek()
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
			l.off++
			l.col++
			continue
		case r == '\n':
			p := l.pos()
			l.advance()
			return Token{Kind: NEWLINE, Lit: "\n", Pos: p}, nil
		case r == '/' && l.peek2() == '/':
			p := l.pos()
			l.off += 2
			l.col += 2
			if text, ok := l.comment(); ok {
				return Token{Kind: PRAGMA, Lit: text, Pos: p}, nil
			}
			continue // plain comment
		case isIdentStart(r):
			p := l.pos()
			start := l.off
			for r := l.peek(); isIdentCont(r) || r == '%'; r = l.peek() {
				l.advance()
			}
			id := l.src[start:l.off]
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

// comment consumes a comment's text after its "//", up to a newline, a
// NUL or the end of the input, and returns the text trimmed of blanks
// and whether it is a pragma ("//@...").
func (l *Lexer) comment() (string, bool) {
	text := l.src[l.off:]
	if n := strings.IndexByte(text, '\n'); n >= 0 {
		text = text[:n]
	}
	if n := strings.IndexByte(text, 0); n >= 0 {
		text = text[:n]
	}
	l.off += len(text)
	l.col += utf8.RuneCountInString(text)
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "@") {
		return "", false
	}
	if !utf8.ValidString(text) {
		text = string([]rune(text)) // each invalid byte reads as RuneError
	}
	return text, true
}

func (l *Lexer) number() (Token, error) {
	p := l.pos()
	start := l.off
	for unicode.IsDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && l.peek2() != '*' && l.peek2() != '/' && l.peek2() != '.' {
		l.advance()
		for unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	mark := l.off
	if m := l.peek(); m == 'e' || m == 'E' || m == 'd' || m == 'D' {
		// Scilab uses both e and d exponent markers; the literal spells
		// each marker as 'e'.
		saveLine, saveCol := l.line, l.col
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if !unicode.IsDigit(l.peek()) {
			// Not an exponent after all (e.g. "4end"): rewind.
			l.off, l.line, l.col = mark, saveLine, saveCol
			return Token{Kind: NUMBER, Lit: l.src[start:mark], Pos: p}, nil
		}
		for unicode.IsDigit(l.peek()) {
			l.advance()
		}
		if m != 'e' {
			return Token{Kind: NUMBER, Lit: l.src[start:mark] + "e" + l.src[mark+1:l.off], Pos: p}, nil
		}
	}
	return Token{Kind: NUMBER, Lit: l.src[start:l.off], Pos: p}, nil
}

func (l *Lexer) str(quote rune) (Token, error) {
	p := l.pos()
	l.advance() // opening quote
	start, verbatim := l.off, true
	for {
		r := l.peek()
		if r == 0 || r == '\n' {
			return Token{}, errf(p, "unterminated string literal")
		}
		l.advance()
		if r == utf8.RuneError {
			verbatim = false
		}
		if r == quote {
			if l.peek() == quote { // doubled quote escapes itself
				l.advance()
				verbatim = false
				continue
			}
			break
		}
	}
	lit := l.src[start : l.off-1]
	if !verbatim {
		// Each invalid byte reads as RuneError, and a doubled quote as one.
		q := string(quote)
		lit = strings.ReplaceAll(string([]rune(lit)), q+q, q)
	}
	return Token{Kind: STRING, Lit: lit, Pos: p}, nil
}

// LexAll tokenizes the whole input: its tokens, EOF last, or the tokens
// before the first malformed one and its error. Parse lexes the same
// way, into a reused buffer.
func LexAll(src string) ([]Token, error) { return lexInto(nil, src) }

// lexInto appends src's tokens to toks, as LexAll returns them.
func lexInto(toks []Token, src string) ([]Token, error) {
	l := NewLexer(src)
	for {
		t, err := l.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
