package scil_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"argo/internal/scil"
	"argo/internal/usecases"
)

// lexMismatch lexes src with the lexer and the reference lexer and
// describes the first difference in kind, literal, position or error
// text, or returns "" when they agree token for token.
func lexMismatch(src string) string {
	got, gerr := scil.LexAll(src)
	want, werr := scil.ReferenceLexAll(src)
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("token %d: missing, reference has %+v", i, want[i])
		case i >= len(want):
			return fmt.Sprintf("token %d: %+v, reference has none", i, got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("token %d: %+v, reference has %+v", i, got[i], want[i])
		}
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, reference has %v", gerr, werr)
	}
	return ""
}

// TestLexMatchesReference checks the byte-slicing lexer against the
// rune-slice lexer it replaced (lexer_ref_test.go) on the use cases,
// generated programs and hand-written cases at its edges.
func TestLexMatchesReference(t *testing.T) {
	var srcs []string
	for _, u := range usecases.All() {
		srcs = append(srcs, u.Source)
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 200; i++ {
		srcs = append(srcs, scil.GenerateSource(rng, scil.DefaultGenConfig()))
	}
	srcs = append(srcs,
		// Non-ASCII identifiers, digits and blanks.
		"größe = αβ + 1\n变量 = größe * 2",
		"x = ٣٤ + ５\ny = 1",
		"ñ%x = 1 // ünïcode comment",
		// Invalid UTF-8: each bad byte reads as one RuneError.
		"x = \xff",
		"a\xc3 = 1",
		"s = 'a\xffb\xc3'",
		`s = "\xe2\x80"`,
		"// plain \xff\nx = 1",
		"//@bound \xfe 3\nx = 1",
		"x = 1 // trailing \xf0\x9f",
		// Exponents and their look-alikes.
		"1d3", "1D+3", "2.5d-2", "1E5", "1e+4", "4end", "4e", "3.e2", ".5", "1..2",
		"for i = 1:4 end", "x = 2.^3", "a.*b ./ c", "x.y", "7.5.*2",
		// Strings, doubled quotes and unterminated literals.
		"'it''s'", `s = "say ""hi"""`, `"''"`, `'""'`, "s = 'héllo''s'", "s = 'open\nx",
		"s = 'open", `s = ""`, "s = ''''",
		// Line ends, continuations and comments.
		"x = 1\r\ny = 2\r\n",
		"x = 1 + ..\n 2", "x = 1 + ...  \r\n 2", "x = 1 .. 2", "x = ..", "...\n",
		"x = 1 // end", "//", "///", "x//y",
		// %-identifiers and pragmas.
		"%pi", "x = %pi + %e", "a%b = 1",
		"//@bound 12   \t\n", "//@entry\r\n", "//   @bound 3\n", "// @ not pragma", "//@",
		// Errors.
		"x = $", "x = 1 # 2", "@", "\\",
		"",
	)
	for _, src := range srcs {
		if d := lexMismatch(src); d != "" {
			t.Errorf("%q: %s", src, d)
		}
	}
}

// TestParseRejectsNUL checks that a NUL byte is an unexpected character
// where it stands, not the end of the input.
func TestParseRejectsNUL(t *testing.T) {
	const fn = "function r = f(a)\n  r = a\nendfunction"
	cases := []struct{ src, want string }{
		{fn + "\x00 ((((", `scil:3:12: unexpected character "\x00"`},
		{"function r = f(a)\n  r = a +\x00 1\nendfunction", `scil:2:10: unexpected character "\x00"`},
		{"function r = f(a)\n  r = a // note\x00 more\nendfunction", `scil:2:16: unexpected character "\x00"`},
		{"function r = f(a)\n  r = a // ä\x00\nendfunction", `scil:2:13: unexpected character "\x00"`},
		{"\x00", `scil:1:1: unexpected character "\x00"`},
		{"function r = f(a)\n  r = 'x\x00y'\nendfunction", "scil:2:7: unterminated string literal"},
	}
	for _, c := range cases {
		_, err := scil.Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: got %v, want %s", c.src, err, c.want)
		}
	}
	if _, err := scil.Parse(fn); err != nil {
		t.Fatalf("without the NUL: %v", err)
	}
}

// TestParseConcurrent parses the use cases from several goroutines at
// once, so the pooled token buffers are shared, and checks each parse
// against a serial one.
func TestParseConcurrent(t *testing.T) {
	ucs := usecases.All()
	want := make([]string, len(ucs))
	for i, u := range ucs {
		p, err := scil.Parse(u.Source)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = scil.Format(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				for i, u := range ucs {
					p, err := scil.Parse(u.Source)
					if err != nil || scil.Format(p) != want[i] {
						t.Errorf("%s: concurrent parse differs from the serial one (%v)", u.Name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
