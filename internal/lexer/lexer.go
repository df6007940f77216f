// Package lexer tokenizes MJ source code.
//
// MJ is the mini-Java language the workloads and examples are written in: a
// Java subset with classes, single inheritance, int/boolean/array types,
// virtual and static methods, and a handful of native functions. The paper's
// analyses operate on Java bytecode; MJ programs lower (via
// internal/parser → internal/sem → internal/codegen) to the three-address IR
// that stands in for bytecode here.
package lexer

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind enumerates token kinds.
type Kind uint8

const (
	EOF Kind = iota
	Ident
	IntLit
	CharLit

	// Keywords
	KwClass
	KwExtends
	KwStatic
	KwVoid
	KwInt
	KwBoolean
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwNew
	KwThis
	KwNull
	KwTrue
	KwFalse
	KwBreak
	KwContinue
	KwInstanceof

	// Punctuation and operators
	LBrace
	RBrace
	LParen
	RParen
	LBracket
	RBracket
	Semi
	Comma
	Dot
	Assign
	Plus
	Minus
	Star
	Slash
	Percent
	Amp
	Pipe
	Caret
	AmpAmp
	PipePipe
	Bang
	Shl
	Shr
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var kindNames = map[Kind]string{
	EOF: "EOF", Ident: "identifier", IntLit: "int literal", CharLit: "char literal",
	KwClass: "class", KwExtends: "extends", KwStatic: "static", KwVoid: "void",
	KwInt: "int", KwBoolean: "boolean", KwIf: "if", KwElse: "else", KwWhile: "while",
	KwFor: "for", KwReturn: "return", KwNew: "new", KwThis: "this", KwNull: "null",
	KwTrue: "true", KwFalse: "false", KwBreak: "break", KwContinue: "continue",
	KwInstanceof: "instanceof",
	LBrace:       "{", RBrace: "}", LParen: "(", RParen: ")", LBracket: "[", RBracket: "]",
	Semi: ";", Comma: ",", Dot: ".", Assign: "=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Amp: "&", Pipe: "|", Caret: "^", AmpAmp: "&&", PipePipe: "||", Bang: "!",
	Shl: "<<", Shr: ">>", Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var keywords = map[string]Kind{
	"class": KwClass, "extends": KwExtends, "static": KwStatic, "void": KwVoid,
	"int": KwInt, "boolean": KwBoolean, "if": KwIf, "else": KwElse,
	"while": KwWhile, "for": KwFor, "return": KwReturn, "new": KwNew,
	"this": KwThis, "null": KwNull, "true": KwTrue, "false": KwFalse,
	"break": KwBreak, "continue": KwContinue, "instanceof": KwInstanceof,
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string // identifier text
	Int  int64  // int/char literal value
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case Ident:
		return t.Text
	case IntLit, CharLit:
		return fmt.Sprintf("%d", t.Int)
	default:
		return t.Kind.String()
	}
}

// Error is a lexical error with position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MJ source in place: off is a byte offset into src, while
// positions count runes, an invalid byte counting as one.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans the entire input, returning all tokens (excluding EOF).
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok.Kind == EOF {
			return out, nil
		}
		out = append(out, tok)
	}
}

// isDigit reports whether r is an ASCII digit. Other Unicode digits may
// continue an identifier but do not start a number.
func isDigit(r rune) bool { return '0' <= r && r <= '9' }

// runeAt decodes the rune at byte offset off and its width: 0 and 0 at
// the end of input, utf8.RuneError and 1 at an invalid byte.
func (l *Lexer) runeAt(off int) (rune, int) {
	if off >= len(l.src) {
		return 0, 0
	}
	if c := l.src[off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[off:])
}

func (l *Lexer) peek() rune {
	r, _ := l.runeAt(l.off)
	return r
}

func (l *Lexer) peek2() rune {
	_, w := l.runeAt(l.off)
	r, _ := l.runeAt(l.off + w)
	return r
}

func (l *Lexer) advance() rune {
	r, w := l.runeAt(l.off)
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) pos() Pos { return Pos{l.line, l.col} }

func (l *Lexer) errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// skipSpaceAndComments consumes whitespace, // line comments and /* block
// comments (non-nesting, like Java).
func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	r := l.peek()

	switch {
	case unicode.IsLetter(r) || r == '_':
		start := l.off
		for l.off < len(l.src) && (unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		text := l.src[start:l.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Pos: pos, Text: kw.String()}, nil
		}
		// A copy, so the token keeps no reference to the source.
		return Token{Kind: Ident, Text: strings.Clone(text), Pos: pos}, nil

	case isDigit(r):
		var v int64
		overflow := false
		for l.off < len(l.src) && isDigit(l.peek()) {
			d := int64(l.advance() - '0')
			if v > (math.MaxInt64-d)/10 {
				overflow = true
			}
			v = v*10 + d
		}
		if overflow {
			return Token{}, l.errf(pos, "integer literal overflows int64")
		}
		return Token{Kind: IntLit, Int: v, Pos: pos}, nil

	case r == '\'':
		l.advance()
		if l.off >= len(l.src) {
			return Token{}, l.errf(pos, "unterminated char literal")
		}
		c := l.advance()
		if c == '\\' {
			if l.off >= len(l.src) {
				return Token{}, l.errf(pos, "unterminated char literal")
			}
			esc := l.advance()
			switch esc {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case '\\':
				c = '\\'
			case '\'':
				c = '\''
			case '0':
				c = 0
			default:
				return Token{}, l.errf(pos, "unknown escape \\%c", esc)
			}
		}
		if l.off >= len(l.src) || l.peek() != '\'' {
			return Token{}, l.errf(pos, "unterminated char literal")
		}
		l.advance()
		return Token{Kind: CharLit, Int: int64(c), Pos: pos}, nil
	}

	l.advance()
	two := func(next rune, ifTwo, ifOne Kind) (Token, error) {
		if l.off < len(l.src) && l.peek() == next {
			l.advance()
			return Token{Kind: ifTwo, Pos: pos}, nil
		}
		return Token{Kind: ifOne, Pos: pos}, nil
	}

	switch r {
	case '{':
		return Token{Kind: LBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: RBrace, Pos: pos}, nil
	case '(':
		return Token{Kind: LParen, Pos: pos}, nil
	case ')':
		return Token{Kind: RParen, Pos: pos}, nil
	case '[':
		return Token{Kind: LBracket, Pos: pos}, nil
	case ']':
		return Token{Kind: RBracket, Pos: pos}, nil
	case ';':
		return Token{Kind: Semi, Pos: pos}, nil
	case ',':
		return Token{Kind: Comma, Pos: pos}, nil
	case '.':
		return Token{Kind: Dot, Pos: pos}, nil
	case '+':
		return Token{Kind: Plus, Pos: pos}, nil
	case '-':
		return Token{Kind: Minus, Pos: pos}, nil
	case '*':
		return Token{Kind: Star, Pos: pos}, nil
	case '/':
		return Token{Kind: Slash, Pos: pos}, nil
	case '%':
		return Token{Kind: Percent, Pos: pos}, nil
	case '^':
		return Token{Kind: Caret, Pos: pos}, nil
	case '&':
		return two('&', AmpAmp, Amp)
	case '|':
		return two('|', PipePipe, Pipe)
	case '!':
		return two('=', Ne, Bang)
	case '=':
		return two('=', Eq, Assign)
	case '<':
		if l.off < len(l.src) && l.peek() == '<' {
			l.advance()
			return Token{Kind: Shl, Pos: pos}, nil
		}
		return two('=', Le, Lt)
	case '>':
		if l.off < len(l.src) && l.peek() == '>' {
			l.advance()
			return Token{Kind: Shr, Pos: pos}, nil
		}
		return two('=', Ge, Gt)
	}
	return Token{}, l.errf(pos, "unexpected character %q", r)
}
