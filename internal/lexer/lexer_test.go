package lexer

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("tokenize %q: %v", src, err)
	}
	out := make([]Kind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func TestKeywordsVsIdents(t *testing.T) {
	got := kinds(t, "class classy int intx this thisone")
	want := []Kind{KwClass, Ident, KwInt, Ident, KwThis, Ident}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

func TestOperatorsMaximalMunch(t *testing.T) {
	cases := map[string][]Kind{
		"<= < << =":  {Le, Lt, Shl, Assign},
		">= > >> ==": {Ge, Gt, Shr, Eq},
		"!= ! =":     {Ne, Bang, Assign},
		"&& & |":     {AmpAmp, Amp, Pipe},
		"|| ^ %":     {PipePipe, Caret, Percent},
	}
	for src, want := range cases {
		got := kinds(t, src)
		if len(got) != len(want) {
			t.Fatalf("%q: %v want %v", src, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: %v want %v", src, got, want)
			}
		}
	}
}

func TestIntAndCharLiterals(t *testing.T) {
	toks, err := Tokenize(`0 42 123456789 'a' '\n' '\\' '\'' '\0'`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 42, 123456789, 'a', '\n', '\\', '\'', 0}
	for i, w := range want {
		if toks[i].Int != w {
			t.Errorf("literal %d = %d, want %d", i, toks[i].Int, w)
		}
	}
}

func TestIntOverflowRejected(t *testing.T) {
	// The second literal wraps to a value above its prefix, which a check
	// comparing each step with the last one misses.
	for _, src := range []string{"99999999999999999999999999", "21000000000000000000", "9223372036854775808"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%s: want overflow error", src)
		}
	}
	toks, err := Tokenize("9223372036854775807")
	if err != nil || len(toks) != 1 || toks[0].Int != 1<<63-1 {
		t.Errorf("max int64: got %v, %v", toks, err)
	}
}

// TestNonASCIIDigitsAreNotNumbers: a Unicode digit outside ASCII would
// otherwise lex as a number with the value of its code point minus '0'.
func TestNonASCIIDigitsAreNotNumbers(t *testing.T) {
	if toks, err := Tokenize("\u0663"); err == nil {
		t.Errorf("want an error, got %v", toks)
	}
	toks, err := Tokenize("x\u0663")
	if err != nil || len(toks) != 1 || toks[0].Kind != Ident {
		t.Errorf("a Unicode digit inside an identifier: got %v, %v", toks, err)
	}
}

func TestCommentsSkipped(t *testing.T) {
	got := kinds(t, `
a // rest of line ignored ; { }
/* block
   spanning */ b /*inline*/ c`)
	if len(got) != 3 || got[0] != Ident || got[1] != Ident || got[2] != Ident {
		t.Fatalf("kinds = %v", got)
	}
}

func TestUnterminatedConstructs(t *testing.T) {
	for _, src := range []string{"/* never closed", "'a", "'", `'\q'`, "@"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q: want error", src)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("a\n  b\n\tc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
	if toks[2].Pos.Line != 3 {
		t.Errorf("c at %v", toks[2].Pos)
	}
}

// Property: any sequence of identifier-ish words round-trips through the
// lexer with the same count and spelling.
func TestIdentRoundTripProperty(t *testing.T) {
	f := func(words []uint16) bool {
		var names []string
		for _, w := range words {
			names = append(names, "id"+string(rune('a'+w%26))+string(rune('a'+(w>>8)%26)))
		}
		src := strings.Join(names, " ")
		toks, err := Tokenize(src)
		if err != nil || len(toks) != len(names) {
			return false
		}
		for i, tok := range toks {
			if tok.Kind != Ident || tok.Text != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every nonnegative int literal round-trips.
func TestIntRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		toks, err := Tokenize(Token{Kind: IntLit, Int: int64(v)}.String())
		return err == nil && len(toks) == 1 && toks[0].Kind == IntLit && toks[0].Int == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
