package parser

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"lowutil/internal/ast"
	"lowutil/internal/lexer"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestClassShape(t *testing.T) {
	p := parse(t, `
class Point extends Shape {
  int x;
  int[] coords;
  Point next;
  static int make(int a, boolean b) { return a; }
  void reset() { }
}`)
	if len(p.Classes) != 1 {
		t.Fatalf("classes = %d", len(p.Classes))
	}
	c := p.Classes[0]
	if c.Name != "Point" || c.Extends != "Shape" {
		t.Errorf("class header wrong: %s extends %s", c.Name, c.Extends)
	}
	if len(c.Fields) != 3 || len(c.Methods) != 2 {
		t.Fatalf("members: %d fields %d methods", len(c.Fields), len(c.Methods))
	}
	if c.Fields[1].Type.String() != "int[]" {
		t.Errorf("coords type = %s", c.Fields[1].Type)
	}
	if !c.Methods[0].Static || c.Methods[0].Returns == nil {
		t.Error("make should be static int")
	}
	if c.Methods[1].Static || c.Methods[1].Returns != nil {
		t.Error("reset should be instance void")
	}
	dump := ast.Dump(p)
	for _, frag := range []string{"class Point extends Shape", "field int x", "static method int make(int a, boolean b)"} {
		if !strings.Contains(dump, frag) {
			t.Errorf("dump missing %q:\n%s", frag, dump)
		}
	}
}

func TestPrecedenceTree(t *testing.T) {
	p := parse(t, `class C { int f() { return 1 + 2 * 3; } }`)
	ret := p.Classes[0].Methods[0].Body.Stmts[0].(*ast.ReturnStmt)
	add, ok := ret.Value.(*ast.BinaryExpr)
	if !ok || add.Op != lexer.Plus {
		t.Fatalf("top = %T", ret.Value)
	}
	mul, ok := add.R.(*ast.BinaryExpr)
	if !ok || mul.Op != lexer.Star {
		t.Fatalf("rhs = %T", add.R)
	}
}

func TestShortCircuitBindsLooserThanCompare(t *testing.T) {
	p := parse(t, `class C { boolean f(int a, int b) { return a < 1 && b > 2 || a == b; } }`)
	ret := p.Classes[0].Methods[0].Body.Stmts[0].(*ast.ReturnStmt)
	or, ok := ret.Value.(*ast.BinaryExpr)
	if !ok || or.Op != lexer.PipePipe {
		t.Fatalf("top = %v", ret.Value)
	}
	and, ok := or.L.(*ast.BinaryExpr)
	if !ok || and.Op != lexer.AmpAmp {
		t.Fatalf("left = %v", or.L)
	}
}

func TestPostfixChains(t *testing.T) {
	p := parse(t, `class C { int f(C c) { return c.next.vals[3].length; } }`)
	ret := p.Classes[0].Methods[0].Body.Stmts[0].(*ast.ReturnStmt)
	ln, ok := ret.Value.(*ast.LenExpr)
	if !ok {
		t.Fatalf("top = %T", ret.Value)
	}
	idx, ok := ln.X.(*ast.IndexExpr)
	if !ok {
		t.Fatalf("inner = %T", ln.X)
	}
	fa, ok := idx.X.(*ast.FieldAccess)
	if !ok || fa.Field != "vals" {
		t.Fatalf("field = %v", idx.X)
	}
}

func TestDeclVsExprDisambiguation(t *testing.T) {
	p := parse(t, `class C { void f() {
	  Foo x = null;       // decl: Ident Ident
	  Foo[] y = null;     // decl: Ident [] Ident
	  x.go();             // expr stmt
	  int[][] z = null;   // decl with dims
	} }`)
	stmts := p.Classes[0].Methods[0].Body.Stmts
	if _, ok := stmts[0].(*ast.VarDecl); !ok {
		t.Errorf("stmt0 = %T", stmts[0])
	}
	if _, ok := stmts[1].(*ast.VarDecl); !ok {
		t.Errorf("stmt1 = %T", stmts[1])
	}
	if _, ok := stmts[2].(*ast.ExprStmt); !ok {
		t.Errorf("stmt2 = %T", stmts[2])
	}
	if d, ok := stmts[3].(*ast.VarDecl); !ok || d.Type.Dims != 2 {
		t.Errorf("stmt3 = %#v", stmts[3])
	}
}

func TestForHeaderVariants(t *testing.T) {
	parse(t, `class C { void f() {
	  for (;;) { break; }
	  for (int i = 0; ; i = i + 1) { break; }
	  for (; true ;) { break; }
	  for (i = 0; i < 3; ) { i = i + 1; }
	} }`)
}

func TestNewForms(t *testing.T) {
	p := parse(t, `class C { void f() {
	  C c = new C();
	  int[] a = new int[10];
	  int[][] b = new int[5][];
	} }`)
	stmts := p.Classes[0].Methods[0].Body.Stmts
	if d := stmts[1].(*ast.VarDecl); d.Init.(*ast.NewArrayExpr).Dims != 1 {
		t.Error("new int[10] dims")
	}
	if d := stmts[2].(*ast.VarDecl); d.Init.(*ast.NewArrayExpr).Dims != 2 {
		t.Error("new int[5][] dims")
	}
}

func TestInstanceofPrecedence(t *testing.T) {
	p := parse(t, `class C { boolean f(C x) { return x instanceof C && true; } }`)
	ret := p.Classes[0].Methods[0].Body.Stmts[0].(*ast.ReturnStmt)
	and, ok := ret.Value.(*ast.BinaryExpr)
	if !ok || and.Op != lexer.AmpAmp {
		t.Fatalf("top = %T", ret.Value)
	}
	if _, ok := and.L.(*ast.InstanceOfExpr); !ok {
		t.Fatalf("left = %T", and.L)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{`class`, "expected identifier"},
		{`class C`, "expected {"},
		{`class C { int }`, "expected identifier"},
		{`class C { void f() { if x { } } }`, "expected ("},
		{`class C { void f() { int 3 = 4; } }`, "expected identifier"},
		{`class C { void f() { x = ; } }`, "unexpected token"},
		{`class C { void f() { foo(1,; } }`, "unexpected token"},
		{`class C { void f() { 3 = 4; } }`, "invalid assignment target"},
		{`class C { void f() { new int(); } }`, "cannot instantiate primitive"},
		{`class C { static int x; }`, "static fields are not supported"},
		{`class C { void f() { x + 1; } }`, "must be a call"},
		{`class C { void f() { return 1 } }`, "expected ;"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: want %q, got %v", c.src, c.frag, err)
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Parse("class C {\n  void f() {\n    int 3;\n  }\n}")
	if err == nil || !strings.Contains(err.Error(), "3:") {
		t.Errorf("want line-3 position, got %v", err)
	}
}

// TestNestingBound drives each recursive form to MaxNesting and one level
// past it: at the bound the program parses, past it Parse fails with a
// positioned *Error instead of recursing further.
func TestNestingBound(t *testing.T) {
	wrap := func(body string) string {
		return "class Main { static void main() { " + body + " } }"
	}
	nest := func(open string, k int, inner, close string) string {
		return strings.Repeat(open, k) + inner + strings.Repeat(close, k)
	}
	// Each case builds a program nested exactly `levels` deep.
	cases := []struct {
		name  string
		build func(levels int) string
	}{
		// The initializer's operand is one level; each parenthesis adds one.
		{"parentheses", func(n int) string { return wrap("int x = " + nest("(", n-1, "1", ")") + ";") }},
		{"unary minus", func(n int) string { return wrap("int x = " + strings.Repeat("-", n-1) + "1;") }},
		{"unary not", func(n int) string { return wrap("boolean b = " + strings.Repeat("!", n-1) + "true;") }},
		{"call arguments", func(n int) string { return wrap("int x = " + nest("f(", n-1, "1", ")") + ";") }},
		{"indexes", func(n int) string { return wrap("int x = " + nest("a[", n-1, "0", "]") + ";") }},
		// A statement in the body is one level; each block or if adds one.
		{"blocks", func(n int) string { return wrap(nest("{", n, "", "}")) }},
		{"if statements", func(n int) string { return wrap(strings.Repeat("if (true) ", n-1) + "f();") }},
		{"while statements", func(n int) string { return wrap(strings.Repeat("while (true) ", n-1) + "f();") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.build(MaxNesting)); err != nil {
				t.Fatalf("at the bound: %v", err)
			}
			_, err := Parse(tc.build(MaxNesting + 1))
			var pe *Error
			if !errors.As(err, &pe) || pe.Pos.Line < 1 || !strings.Contains(pe.Msg, "nest deeper") {
				t.Fatalf("one past the bound: got %v, want a positioned nesting *Error", err)
			}
		})
	}
}

// TestErrorPositions pins the position and message of errors at the end of
// input, which /v2 compile_error envelopes carry as line and col. An error
// at end of input points at the last token, not past it. The lexer reports
// an error when the parser reaches it, so the last row, whose syntax error
// comes first, reports that.
func TestErrorPositions(t *testing.T) {
	cases := []struct{ src, want string }{
		{`class`, "1:1: expected identifier, found EOF"},
		{`class A`, "1:7: expected {, found EOF"},
		{`class A {`, "1:9: expected }, found EOF"},
		{`class A { int`, "1:11: expected identifier, found EOF"},
		{`class A { int x`, "1:15: expected ;, found EOF"},
		{`class A { void f(`, "1:17: expected type, found EOF"},
		{`class A { void f() {`, "1:20: expected }, found EOF"},
		{`class A { void f() { int x = `, "1:28: unexpected token EOF"},
		{`class A { void f() { return 1`, "1:29: expected ;, found EOF"},
		{`class A { void f() { x = y[`, "1:27: unexpected token EOF"},
		{"\n\nclass A {\n  ", "3:9: expected }, found EOF"},
		{`class A { } }`, "1:13: expected class, found }"},
		{`class A { int x; } /*`, "1:20: unterminated block comment"},
		{`class A { void f() { int x = 99999999999999999999; } }`, "1:30: integer literal overflows int64"},
		{`class A { } 99999999999999999999`, "1:13: integer literal overflows int64"},
		{`class A { int 3 @ }`, "1:15: expected identifier, found 3"},
		{`class Main { static void main() { Foo[] = 3; } }`, "1:41: expected identifier, found ="},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("%q: got %v, want %s", c.src, err, c.want)
		}
	}
}

// TestTokenFloodBounded parses floods of parentheses, bare and inside an
// initializer, and of `[]` pairs after a type in a declaration. Each fails
// at its first error (the missing class keyword, the nesting bound, the
// dimension bound) with the memory of the lexer's rune copy, not of a
// token per byte.
func TestTokenFloodBounded(t *testing.T) {
	n := 16 << 20
	if testing.Short() {
		n = 1 << 20
	}
	const dimsErr = "1:548: array types have at most 255 dimensions"
	const body = "class Main { static void main() { "
	cases := []struct{ prefix, unit, suffix, want string }{
		{"", "(", "", "1:1: expected class, found ("},
		{"class Main { static void main() { int x = ", "(", "", "1:1043: expressions nest deeper than 1000 levels"},
		{body + "Foo", "[]", " x; } }", dimsErr},
		{body + "int", "[]", " x; } }", dimsErr},
		{body + "Foo", "[]", " = 3; } }", dimsErr},
		{body + "int", "[]", " = 3; } }", dimsErr},
	}
	for _, c := range cases {
		src := c.prefix + strings.Repeat(c.unit, n/len(c.unit)) + c.suffix
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(src)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != c.want {
			t.Errorf("%.40q flood of %q: got %v, want %s", c.prefix, c.unit, err, c.want)
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 100 {
			t.Errorf("%.40q flood of %q: allocated %d MB, want at most 100", c.prefix, c.unit, mb)
		}
	}
}
