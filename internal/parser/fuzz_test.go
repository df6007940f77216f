package parser_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/ast"
	"lowutil/internal/lexer"
	"lowutil/internal/parser"
	"lowutil/internal/workloads"
)

// FuzzParse checks that parsing never panics, that every failure is a
// positioned *parser.Error or *lexer.Error, and that a parsed program
// prints to source that re-parses and prints the same. Printing
// parenthesizes fully, so a long flat chain such as a+b+… can print
// deeper than MaxNesting; a re-parse that fails on the nesting bound alone
// is allowed.
func FuzzParse(f *testing.F) {
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
	for _, w := range workloads.All() {
		f.Add(w.Source(1))
	}
	deep := strings.Repeat("(", parser.MaxNesting) + "1" + strings.Repeat(")", parser.MaxNesting)
	for _, src := range []string{
		strings.Repeat("(", 4000),
		"class Main { static void main() { int x = " + deep + "; } }",
		"class A { } /* unterminated",
		"class A {",
		"class A { void f() { int x = 99999999999999999999; } }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			var pe *parser.Error
			var le *lexer.Error
			if !errors.As(err, &pe) && !errors.As(err, &le) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		printed := ast.PrintSource(prog)
		again, err := parser.Parse(printed)
		if err != nil {
			var pe *parser.Error
			if errors.As(err, &pe) && strings.Contains(pe.Msg, "nest deeper") {
				return
			}
			t.Fatalf("printed source does not re-parse: %v\n%s", err, printed)
		}
		if reprinted := ast.PrintSource(again); reprinted != printed {
			t.Fatalf("printing is not a fixpoint:\n%s\n---\n%s", printed, reprinted)
		}
	})
}
