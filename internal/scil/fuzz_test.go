package scil_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"argo/internal/scil"
	"argo/internal/usecases"
)

// FuzzParseSCIL asserts the parser's robustness contract on arbitrary
// byte strings: it never panics (malformed input turns into an error),
// and whenever it accepts an input, parse∘format is a fixed point — the
// formatter emits canonical source the parser accepts again, and
// formatting that reparse changes nothing. This is the fuzz extension of
// the argofmt round-trip corpus tests in format_test.go.
//
// On an input with no NUL byte, the lexer must agree with the reference
// lexer (lexer_ref_test.go) token for token, error text included; the
// reference reads a NUL as the end of the input, the lexer as an error.
//
// It also checks the premise of keying compiles by scil.Digest: the
// reparse equals the parse with positions zeroed (a formatter that
// dropped a needed parenthesis would still be a fixed point, yet would
// make (a+b)*c and a+b*c one program), and comments, blank lines and
// indentation injected into the canonical text leave the digest as it
// was.
//
// Run the full fuzzer with: go test -fuzz=FuzzParseSCIL ./internal/scil
func FuzzParseSCIL(f *testing.F) {
	seeds := []string{
		"",
		"function r = f(a)\n  r = a\nendfunction",
		"function [q, m] = g(v)\n  q = 0\n  for i = 1:2:9\n    q = q + v(1, i)\n  end\n  m = [1, 2; 3, 4]\nendfunction",
		"//@entry\nfunction r = h(x)\n  //@bound 16\n  while x > 1\n    x = x / 2\n  end\n  r = x\nendfunction",
		"function r = k(n)\n  v = (1:10)\n  r = sum(v) + length(v)\n  return\nendfunction",
		"function r = f(a, b)\n  if a > b then\n    r = a\n  elseif a < b then\n    r = b\n  else\n    r = 0\n  end\nendfunction",
		// Malformed shards that must error, not panic.
		"function",
		"function r = f(\nendfunction",
		"r = [1, 2; 3",
		"function r = f(a)\n  r = a(\nendfunction",
		"\x00\xff\xfe",
		"function r = f(a)\n  r = a\nendfunction\x00 ((((",
		"function r = f(a)\n  s = 'it''s' // ä \xff\n  r = 1D+3 * %pi\nendfunction",
		"function r = f(a)\n  r = 1e99999\nendfunction",
	}
	for _, u := range usecases.All() {
		seeds = append(seeds, u.Source)
	}
	for seed := int64(1); seed <= 8; seed++ {
		seeds = append(seeds, scil.GenerateSource(rand.New(rand.NewSource(seed)), scil.DefaultGenConfig()))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if strings.IndexByte(src, 0) < 0 {
			if d := lexMismatch(src); d != "" {
				t.Fatalf("lexer and reference disagree on %q: %s", src, d)
			}
		}
		p1, err := scil.Parse(src)
		if err != nil {
			return // rejection is fine; panicking is the bug
		}
		f1 := scil.Format(p1)
		p2, err := scil.Parse(f1)
		if err != nil {
			t.Fatalf("formatter emitted unparsable source: %v\n--- input\n%q\n--- formatted\n%s", err, src, f1)
		}
		if f2 := scil.Format(p2); f1 != f2 {
			t.Fatalf("parse∘format not a fixed point:\n--- first\n%s\n--- second\n%s", f1, f2)
		}
		digest := scil.Digest(p1)
		zeroPositions(reflect.ValueOf(p1))
		zeroPositions(reflect.ValueOf(p2))
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("reparse of the formatted text is another program:\n--- input\n%q\n--- formatted\n%s", src, f1)
		}
		relaid := relayout(f1, src)
		p3, err := scil.Parse(relaid)
		if err != nil {
			t.Fatalf("comments and layout broke the parse: %v\n%s", err, relaid)
		}
		if scil.Digest(p3) != digest {
			t.Fatalf("comments and layout changed the digest:\n--- canonical\n%s\n--- relaid\n%s", f1, relaid)
		}
	})
}

// posType is the type of the source positions zeroPositions clears.
var posType = reflect.TypeOf(scil.Pos{})

// zeroPositions clears every source position in the tree under v.
func zeroPositions(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			zeroPositions(v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			zeroPositions(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == posType {
			v.SetZero()
			return
		}
		for i := 0; i < v.NumField(); i++ {
			zeroPositions(v.Field(i))
		}
	}
}

// relayout re-saves canonical text with comments, blank lines and
// indentation injected, choosing per line from a generator seeded by
// seed's bytes. Pragma lines take no trailing comment: it would become
// part of the pragma's text.
func relayout(canonical, seed string) string {
	h := fnv.New64a()
	h.Write([]byte(seed))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	var sb strings.Builder
	for i, line := range strings.Split(canonical, "\n") {
		switch rng.Intn(4) {
		case 0:
			sb.WriteString("\n")
		case 1:
			fmt.Fprintf(&sb, "%s// note %d\n", strings.Repeat(" ", rng.Intn(5)), i)
		}
		code := strings.TrimLeft(line, " ")
		sb.WriteString([]string{"", "\t", "    ", " \t "}[rng.Intn(4)])
		sb.WriteString(code)
		if code != "" && !strings.HasPrefix(code, "//") && rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "  // trailing %d", i)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
