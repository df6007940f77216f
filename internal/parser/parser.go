// Package parser implements a recursive-descent parser for MJ, producing
// the AST consumed by internal/sem.
package parser

import (
	"fmt"

	"lowutil/internal/ast"
	"lowutil/internal/lexer"
)

// Error is a parse error with position.
type Error struct {
	Pos lexer.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// MaxNesting bounds how deep statements, and separately expressions, may
// nest. The parser recurses once per level, so without a bound a hostile
// source (millions of nested parentheses fit in a few megabytes) would
// overflow the goroutine stack, which is fatal to the whole process. A
// statement in a method body is one level deep, and each enclosing block,
// if, while or for adds one; an operand is one level deep, and each
// enclosing parenthesis, unary operator, call argument, index or array
// length adds one. Real programs stay far below the bound: the workloads
// nest at most 6 blocks and 2 parentheses deep.
const MaxNesting = 1000

// Parse parses a complete MJ compilation unit. The parser pulls tokens
// from the lexer as it goes, so its memory follows the lookahead and the
// nesting depth rather than the source size, and a hostile source fails at
// its first error without being tokenized to the end. A lexical error is
// reported when the parser reaches it: a source with a syntax error before
// its first lexical error reports the syntax error.
func Parse(src string) (*ast.Program, error) {
	p := &parser{lx: lexer.New(src)}
	prog, err := p.program()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

type parser struct {
	lx *lexer.Lexer
	// buf holds the lookahead: buf[off:] are tokens read from the lexer but
	// not consumed yet. It resets when drained and grows only while
	// peekKind looks past `[]` pairs.
	buf []lexer.Token
	off int
	// last is the position of the last token read from the lexer. The
	// parser's EOF token carries it, so an error at end of input points at
	// the last token, not past it.
	last lexer.Pos
	// lexErr is the lexer's error; the parser sees EOF from there on.
	lexErr error
	// stmtDepth and exprDepth count the statements and operands being
	// parsed, innermost included (see MaxNesting).
	stmtDepth, exprDepth int
}

// program := classDecl* EOF
func (p *parser) program() (*ast.Program, error) {
	prog := &ast.Program{}
	for !p.at(lexer.EOF) {
		c, err := p.classDecl()
		if err != nil {
			return nil, err
		}
		prog.Classes = append(prog.Classes, c)
	}
	return prog, nil
}

// peek returns the token ahead places past the current one, reading from
// the lexer as needed.
func (p *parser) peek(ahead int) lexer.Token {
	for p.off+ahead >= len(p.buf) {
		t := lexer.Token{Kind: lexer.EOF, Pos: p.last}
		if p.lexErr == nil {
			next, err := p.lx.Next()
			switch {
			case err != nil:
				p.lexErr = err
			case next.Kind != lexer.EOF:
				t, p.last = next, next.Pos
			}
		}
		p.buf = append(p.buf, t)
	}
	return p.buf[p.off+ahead]
}

func (p *parser) cur() lexer.Token { return p.peek(0) }

func (p *parser) at(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *parser) peekKind(ahead int) lexer.Kind { return p.peek(ahead).Kind }

func (p *parser) next() lexer.Token {
	t := p.cur()
	if p.off++; p.off == len(p.buf) {
		p.buf, p.off = p.buf[:0], 0
	}
	return t
}

func (p *parser) errf(pos lexer.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// enter opens one nesting level on *depth, failing past MaxNesting; every
// enter is paired with a deferred leave.
func (p *parser) enter(depth *int, what string) error {
	*depth++
	if *depth > MaxNesting {
		return p.errf(p.cur().Pos, "%s nest deeper than %d levels", what, MaxNesting)
	}
	return nil
}

func (p *parser) leave(depth *int) { *depth-- }

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	if !p.at(k) {
		return lexer.Token{}, p.errf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

// classDecl := "class" ID ("extends" ID)? "{" member* "}"
func (p *parser) classDecl() (*ast.ClassDecl, error) {
	kw, err := p.expect(lexer.KwClass)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	c := &ast.ClassDecl{Name: name.Text, Pos: kw.Pos}
	if p.at(lexer.KwExtends) {
		p.next()
		sup, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		c.Extends = sup.Text
	}
	if _, err := p.expect(lexer.LBrace); err != nil {
		return nil, err
	}
	for !p.at(lexer.RBrace) && !p.at(lexer.EOF) {
		if err := p.member(c); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(lexer.RBrace); err != nil {
		return nil, err
	}
	return c, nil
}

// member := "static"? (type|"void") ID (methodRest | ";")
func (p *parser) member(c *ast.ClassDecl) error {
	static := false
	if p.at(lexer.KwStatic) {
		p.next()
		static = true
	}
	var ret *ast.TypeRef
	if p.at(lexer.KwVoid) {
		p.next()
		ret = nil
		name, err := p.expect(lexer.Ident)
		if err != nil {
			return err
		}
		m, err := p.methodRest(name.Text, static, ret, name.Pos)
		if err != nil {
			return err
		}
		c.Methods = append(c.Methods, m)
		return nil
	}
	typ, err := p.typeRef()
	if err != nil {
		return err
	}
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return err
	}
	if p.at(lexer.LParen) {
		m, err := p.methodRest(name.Text, static, typ, name.Pos)
		if err != nil {
			return err
		}
		c.Methods = append(c.Methods, m)
		return nil
	}
	if static {
		return p.errf(name.Pos, "static fields are not supported; use a holder object")
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return err
	}
	c.Fields = append(c.Fields, &ast.FieldDecl{Name: name.Text, Type: typ, Pos: name.Pos})
	return nil
}

func (p *parser) methodRest(name string, static bool, ret *ast.TypeRef, pos lexer.Pos) (*ast.MethodDecl, error) {
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	m := &ast.MethodDecl{Name: name, Static: static, Returns: ret, Pos: pos}
	for !p.at(lexer.RParen) {
		if len(m.Params) > 0 {
			if _, err := p.expect(lexer.Comma); err != nil {
				return nil, err
			}
		}
		typ, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		m.Params = append(m.Params, &ast.Param{Name: id.Text, Type: typ, Pos: id.Pos})
	}
	p.next() // RParen
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	m.Body = body
	return m, nil
}

// typeRef := ("int"|"boolean"|ID) ("[" "]")*
func (p *parser) typeRef() (*ast.TypeRef, error) {
	t := p.cur()
	var base string
	switch t.Kind {
	case lexer.KwInt:
		base = "int"
	case lexer.KwBoolean:
		base = "boolean"
	case lexer.Ident:
		base = t.Text
	default:
		return nil, p.errf(t.Pos, "expected type, found %s", t)
	}
	p.next()
	tr := &ast.TypeRef{Base: base, Pos: t.Pos}
	for p.at(lexer.LBracket) && p.peekKind(1) == lexer.RBracket {
		p.next()
		p.next()
		tr.Dims++
	}
	return tr, nil
}

// startsType reports whether the upcoming tokens begin a local variable
// declaration rather than an expression statement. A declaration is
//
//	int x …  |  boolean x …  |  Foo x …  |  Foo[] x …  |  int[][] x …
func (p *parser) startsType() bool {
	switch p.cur().Kind {
	case lexer.KwInt, lexer.KwBoolean:
		return true
	case lexer.Ident:
		// ID followed by ident → declaration; ID[] … ident → declaration.
		i := 1
		for p.peekKind(i) == lexer.LBracket && p.peekKind(i+1) == lexer.RBracket {
			i += 2
		}
		return p.peekKind(i) == lexer.Ident
	}
	return false
}

func (p *parser) block() (*ast.Block, error) {
	lb, err := p.expect(lexer.LBrace)
	if err != nil {
		return nil, err
	}
	b := &ast.Block{Pos: lb.Pos}
	for !p.at(lexer.RBrace) && !p.at(lexer.EOF) {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	if _, err := p.expect(lexer.RBrace); err != nil {
		return nil, err
	}
	return b, nil
}

func (p *parser) stmt() (ast.Stmt, error) {
	defer p.leave(&p.stmtDepth)
	if err := p.enter(&p.stmtDepth, "statements"); err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case lexer.LBrace:
		return p.block()
	case lexer.KwIf:
		return p.ifStmt()
	case lexer.KwWhile:
		return p.whileStmt()
	case lexer.KwFor:
		return p.forStmt()
	case lexer.KwReturn:
		t := p.next()
		r := &ast.ReturnStmt{Pos: t.Pos}
		if !p.at(lexer.Semi) {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return r, nil
	case lexer.KwBreak:
		t := p.next()
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return &ast.BreakStmt{Pos: t.Pos}, nil
	case lexer.KwContinue:
		t := p.next()
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return &ast.ContinueStmt{Pos: t.Pos}, nil
	}
	s, err := p.simpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return s, nil
}

// simpleStmt parses a declaration, assignment, or expression statement,
// without the trailing semicolon (shared with for-headers).
func (p *parser) simpleStmt() (ast.Stmt, error) {
	if p.startsType() {
		typ, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		id, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		d := &ast.VarDecl{Name: id.Text, Type: typ, Pos: id.Pos}
		if p.at(lexer.Assign) {
			p.next()
			init, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		return d, nil
	}
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.Assign) {
		eq := p.next()
		switch lhs.(type) {
		case *ast.Name, *ast.FieldAccess, *ast.IndexExpr:
		default:
			return nil, p.errf(eq.Pos, "invalid assignment target")
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ast.AssignStmt{LHS: lhs, RHS: rhs, Pos: eq.Pos}, nil
	}
	if _, ok := lhs.(*ast.CallExpr); !ok {
		return nil, p.errf(lhs.ExprPos(), "expression statement must be a call")
	}
	return &ast.ExprStmt{X: lhs, Pos: lhs.ExprPos()}, nil
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	kw := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	then, err := p.stmt()
	if err != nil {
		return nil, err
	}
	s := &ast.IfStmt{Cond: cond, Then: then, Pos: kw.Pos}
	if p.at(lexer.KwElse) {
		p.next()
		els, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *parser) whileStmt() (ast.Stmt, error) {
	kw := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &ast.WhileStmt{Cond: cond, Body: body, Pos: kw.Pos}, nil
}

func (p *parser) forStmt() (ast.Stmt, error) {
	kw := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	s := &ast.ForStmt{Pos: kw.Pos}
	if !p.at(lexer.Semi) {
		init, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		s.Init = init
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	if !p.at(lexer.Semi) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	if !p.at(lexer.RParen) {
		post, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// ---- Expressions (precedence climbing) ----

// Binding powers, loosest first:
//
//	||  &&  |  ^  &  ==/!= / instanceof  </<=/>/>=  <</>>  +/-  */%/  unary  postfix
var binPrec = map[lexer.Kind]int{
	lexer.PipePipe: 1,
	lexer.AmpAmp:   2,
	lexer.Pipe:     3,
	lexer.Caret:    4,
	lexer.Amp:      5,
	lexer.Eq:       6, lexer.Ne: 6, lexer.KwInstanceof: 6,
	lexer.Lt: 7, lexer.Le: 7, lexer.Gt: 7, lexer.Ge: 7,
	lexer.Shl: 8, lexer.Shr: 8,
	lexer.Plus: 9, lexer.Minus: 9,
	lexer.Star: 10, lexer.Slash: 10, lexer.Percent: 10,
}

func (p *parser) expr() (ast.Expr, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (ast.Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		if op == lexer.KwInstanceof {
			id, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			lhs = &ast.InstanceOfExpr{X: lhs, Class: id.Text, Pos: opTok.Pos}
			continue
		}
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryExpr{Op: op, L: lhs, R: rhs, Pos: opTok.Pos}
	}
}

func (p *parser) unary() (ast.Expr, error) {
	defer p.leave(&p.exprDepth)
	if err := p.enter(&p.exprDepth, "expressions"); err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case lexer.Minus:
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{Op: lexer.Minus, X: x, Pos: t.Pos}, nil
	case lexer.Bang:
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{Op: lexer.Bang, X: x, Pos: t.Pos}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (ast.Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case lexer.Dot:
			p.next()
			id, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			if p.at(lexer.LParen) {
				args, err := p.args()
				if err != nil {
					return nil, err
				}
				x = &ast.CallExpr{X: x, Method: id.Text, Args: args, Pos: id.Pos}
			} else if id.Text == "length" {
				x = &ast.LenExpr{X: x, Pos: id.Pos}
			} else {
				x = &ast.FieldAccess{X: x, Field: id.Text, Pos: id.Pos}
			}
		case lexer.LBracket:
			lb := p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.RBracket); err != nil {
				return nil, err
			}
			x = &ast.IndexExpr{X: x, Index: idx, Pos: lb.Pos}
		default:
			return x, nil
		}
	}
}

func (p *parser) args() ([]ast.Expr, error) {
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	var out []ast.Expr
	for !p.at(lexer.RParen) {
		if len(out) > 0 {
			if _, err := p.expect(lexer.Comma); err != nil {
				return nil, err
			}
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	p.next() // RParen
	return out, nil
}

func (p *parser) primary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.IntLit, lexer.CharLit:
		p.next()
		return &ast.IntLit{Value: t.Int, Pos: t.Pos}, nil
	case lexer.KwTrue:
		p.next()
		return &ast.BoolLit{Value: true, Pos: t.Pos}, nil
	case lexer.KwFalse:
		p.next()
		return &ast.BoolLit{Value: false, Pos: t.Pos}, nil
	case lexer.KwNull:
		p.next()
		return &ast.NullLit{Pos: t.Pos}, nil
	case lexer.KwThis:
		p.next()
		return &ast.ThisExpr{Pos: t.Pos}, nil
	case lexer.LParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return x, nil
	case lexer.KwNew:
		p.next()
		base := p.cur()
		var baseName string
		switch base.Kind {
		case lexer.KwInt:
			baseName = "int"
		case lexer.KwBoolean:
			baseName = "boolean"
		case lexer.Ident:
			baseName = base.Text
		default:
			return nil, p.errf(base.Pos, "expected type after new, found %s", base)
		}
		p.next()
		if p.at(lexer.LParen) {
			if baseName == "int" || baseName == "boolean" {
				return nil, p.errf(base.Pos, "cannot instantiate primitive %s", baseName)
			}
			p.next()
			if _, err := p.expect(lexer.RParen); err != nil {
				return nil, err
			}
			return &ast.NewExpr{Class: baseName, Pos: t.Pos}, nil
		}
		if !p.at(lexer.LBracket) {
			return nil, p.errf(p.cur().Pos, "expected ( or [ after new %s", baseName)
		}
		p.next()
		length, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RBracket); err != nil {
			return nil, err
		}
		dims := 1
		for p.at(lexer.LBracket) && p.peekKind(1) == lexer.RBracket {
			p.next()
			p.next()
			dims++
		}
		return &ast.NewArrayExpr{Base: baseName, Dims: dims, Len: length, Pos: t.Pos}, nil
	case lexer.Ident:
		p.next()
		if p.at(lexer.LParen) {
			args, err := p.args()
			if err != nil {
				return nil, err
			}
			return &ast.CallExpr{X: nil, Method: t.Text, Args: args, Pos: t.Pos}, nil
		}
		return &ast.Name{Ident: t.Text, Pos: t.Pos}, nil
	}
	return nil, p.errf(t.Pos, "unexpected token %s", t)
}
