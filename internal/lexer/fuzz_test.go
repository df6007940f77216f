package lexer_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/lexer"
)

// FuzzLex scans arbitrary input to its end or its first error. The lexer
// must never panic, every error must be a *lexer.Error, and token
// positions must strictly increase.
func FuzzLex(f *testing.F) {
	files, err := filepath.Glob("../fuzzgen/corpus/*.mj")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{
		strings.Repeat("(", 4096),
		strings.Repeat("[]", 2048),
		strings.Repeat("Foo[]", 1024) + " x;",
		"class Ünï { int x; } /* unterminated",
		"'\\q' 'a 99999999999999999999 \xff\xfe ١٢٣",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lx := lexer.New(src)
		var prev lexer.Pos
		for {
			tok, err := lx.Next()
			if err != nil {
				var le *lexer.Error
				if !errors.As(err, &le) {
					t.Fatalf("untyped error %T: %v", err, err)
				}
				return
			}
			if tok.Pos.Line < prev.Line || tok.Pos.Line == prev.Line && tok.Pos.Col <= prev.Col {
				t.Fatalf("token %v at %v does not follow %v", tok, tok.Pos, prev)
			}
			if tok.Kind == lexer.EOF {
				return
			}
			prev = tok.Pos
		}
	})
}
