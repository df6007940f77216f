package fuzzgen

import (
	"fmt"
	"strings"
)

// Config bounds the generated program's shape. The zero value is replaced
// by DefaultConfig; Generate additionally randomizes within these bounds
// so one seed stream covers many program sizes.
type Config struct {
	// MaxSubclasses bounds the Base hierarchy's subclass count (>= 1).
	MaxSubclasses int
	// MaxWorkers bounds the worker-class count (>= 1).
	MaxWorkers int
	// MaxMethods bounds generated methods per worker class (>= 1).
	MaxMethods int
	// MaxStmts bounds statements per generated block (>= 2).
	MaxStmts int
	// MaxDepth bounds block nesting inside a method body.
	MaxDepth int
}

// DefaultConfig is the shape used by the CLI and the soak scripts.
var DefaultConfig = Config{
	MaxSubclasses: 3,
	MaxWorkers:    3,
	MaxMethods:    3,
	MaxStmts:      7,
	MaxDepth:      3,
}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.MaxSubclasses > 0 {
		d.MaxSubclasses = c.MaxSubclasses
	}
	if c.MaxWorkers > 0 {
		d.MaxWorkers = c.MaxWorkers
	}
	if c.MaxMethods > 0 {
		d.MaxMethods = c.MaxMethods
	}
	if c.MaxStmts > 1 {
		d.MaxStmts = c.MaxStmts
	}
	if c.MaxDepth > 0 {
		d.MaxDepth = c.MaxDepth
	}
	return d
}

// genMethod is one callable target in the global generation order.
type genMethod struct {
	class  string
	m      *Method
	static bool
	// depthParam marks the bounded-recursion depth parameter (index 0 of
	// the rec method); callers pass a small positive constant.
	depthParam bool
}

// refVar is an in-scope, definitely-non-null reference variable.
type refVar struct {
	name  string
	class string
}

// arrVar is an in-scope, fully initialized array variable.
type arrVar struct {
	name string
	n    int
	elem string // element class for ref arrays, "" for int arrays
}

// gen carries the whole-program generation state.
type gen struct {
	r   *rng
	cfg Config
	p   *Prog

	hier    []string            // Base first, then subclasses
	parent  map[string]string   // class -> superclass ("" for Base)
	intFlds map[string][]string // class -> accessible int field names
	workers []string
	methods []*genMethod // global DAG order
	nv      int          // fresh-name counter
}

// scope tracks what the generator may reference at the current point.
type scope struct {
	g *gen
	// mIndex is the current method's global order index; callable targets
	// are methods with a strictly larger index. Main uses -1 (call
	// anything).
	mIndex int
	// allowCalls gates worker/recursion calls; hierarchy methods are call
	// leaves so object graphs can never drive unbounded dispatch chains.
	allowCalls bool
	depth      int

	ints  []string // readable and assignable int vars
	ros   []string // readable-only ints: loop counters, recursion depths
	bools []string
	refs  []refVar
	iarrs []arrVar
	rarrs []arrVar
}

func (sc *scope) save() (a, b, c, d, e, f int) {
	return len(sc.ints), len(sc.ros), len(sc.bools), len(sc.refs), len(sc.iarrs), len(sc.rarrs)
}

func (sc *scope) restore(a, b, c, d, e, f int) {
	sc.ints, sc.ros, sc.bools = sc.ints[:a], sc.ros[:b], sc.bools[:c]
	sc.refs, sc.iarrs, sc.rarrs = sc.refs[:d], sc.iarrs[:e], sc.rarrs[:f]
}

func (g *gen) fresh(prefix string) string {
	g.nv++
	return fmt.Sprintf("%s%d", prefix, g.nv)
}

// Generate builds a random MJ program from the seed under cfg's bounds.
func Generate(seed uint64, cfg Config) *Prog {
	g := &gen{r: newRng(seed), cfg: cfg.withDefaults(), p: &Prog{Seed: seed},
		parent: map[string]string{}, intFlds: map[string][]string{}}
	g.buildHierarchy()
	g.buildScratch()
	g.declareWorkers()
	g.fillWorkerBodies()
	g.buildMain()
	return g.p
}

// ---- class construction ----

func (g *gen) buildHierarchy() {
	base := &Class{Name: "Base", Fields: []Field{
		{Name: "fa", Type: "int"}, {Name: "fb", Type: "int"}, {Name: "link", Type: "Base"},
	}}
	g.p.Classes = append(g.p.Classes, base)
	g.hier = []string{"Base"}
	g.parent["Base"] = ""
	g.intFlds["Base"] = []string{"fa", "fb"}

	nSubs := g.r.rangeInt(1, g.cfg.MaxSubclasses)
	for i := 0; i < nSubs; i++ {
		// Chain or fan: extend the most recent class half the time to get
		// depth, otherwise extend Base for width.
		super := "Base"
		if i > 0 && g.r.chance(1, 2) {
			super = g.hier[len(g.hier)-1]
		}
		name := "Sub" + letters(i, 'A')
		own := "g" + letters(i, 'a')
		c := &Class{Name: name, Extends: super, Fields: []Field{{Name: own, Type: "int"}}}
		g.p.Classes = append(g.p.Classes, c)
		g.hier = append(g.hier, name)
		g.parent[name] = super
		g.intFlds[name] = append(append([]string{}, g.intFlds[super]...), own)
	}
	// Every hierarchy class defines the two virtual methods, so dispatch
	// targets differ per dynamic class. Bodies are call-free leaves.
	for hi, name := range g.hier {
		c := g.classByName(name)
		c.Methods = append(c.Methods, g.leafMethod(name, "step", hi), g.tagMethod(name, hi))
	}
}

// letters names the i-th subclass in bijective base 26: A..Z, AA, AB, …
// (from 'a' for field names), so the first four are SubA..SubD and ga..gd.
func letters(i int, first byte) string {
	var b []byte
	for i++; i > 0; i = (i - 1) / 26 {
		b = append([]byte{first + byte((i-1)%26)}, b...)
	}
	return string(b)
}

// leafMethod builds "int step(int x)" for one hierarchy class: a couple of
// field updates plus a return mixing x with the receiver's fields.
func (g *gen) leafMethod(class, name string, salt int) *Method {
	m := &Method{Name: name, Ret: "int", Params: []Field{{Name: "x", Type: "int"}}, Index: 1 << 30}
	sc := &scope{g: g, mIndex: 1 << 30, allowCalls: false, depth: g.cfg.MaxDepth - 1}
	sc.ints = []string{"x"}
	sc.refs = []refVar{{name: "this", class: class}}
	n := g.r.rangeInt(0, 2)
	for i := 0; i < n; i++ {
		m.Body = append(m.Body, g.stmtSimple(sc))
	}
	m.Body = append(m.Body, &Stmt{Pinned: true,
		Flat: fmt.Sprintf("return %s;", sc.intExpr(1))})
	return m
}

func (g *gen) tagMethod(class string, hi int) *Method {
	return &Method{Name: "tag", Ret: "int", Index: 1 << 30, Body: []*Stmt{
		{Pinned: true, Flat: fmt.Sprintf("return %d;", (hi+1)*7+g.r.intn(5))},
	}}
}

func (g *gen) buildScratch() {
	g.p.Classes = append(g.p.Classes, &Class{Name: "Scratch", Fields: []Field{
		{Name: "sa", Type: "int"}, {Name: "sb", Type: "int"}, {Name: "sc", Type: "int"},
	}})
	g.intFlds["Scratch"] = []string{"sa", "sb", "sc"}
}

// declareWorkers creates the worker classes and method signatures first,
// so bodies can call any later-indexed method regardless of class.
func (g *gen) declareWorkers() {
	nw := g.r.rangeInt(1, g.cfg.MaxWorkers)
	for w := 0; w < nw; w++ {
		name := fmt.Sprintf("W%d", w+1)
		c := &Class{Name: name, Fields: []Field{{Name: fmt.Sprintf("acc%d", w+1), Type: "int"}}}
		g.workers = append(g.workers, name)
		g.intFlds[name] = []string{fmt.Sprintf("acc%d", w+1)}
		g.p.Classes = append(g.p.Classes, c)

		nm := g.r.rangeInt(1, g.cfg.MaxMethods)
		for k := 0; k < nm; k++ {
			idx := len(g.methods)
			m := &Method{Name: fmt.Sprintf("m%d", idx), Ret: "int", Index: idx}
			gm := &genMethod{class: name, m: m}
			// The very first method of the first worker is the bounded
			// recursion: int m0(int d, int a) counting d down to zero.
			if idx == 0 {
				m.Params = []Field{{Name: "d", Type: "int"}, {Name: "a", Type: "int"}}
				gm.depthParam = true
			} else {
				np := g.r.rangeInt(1, 2)
				for pi := 0; pi < np; pi++ {
					m.Params = append(m.Params, Field{Name: fmt.Sprintf("p%d", pi), Type: "int"})
				}
				if g.r.chance(1, 3) {
					m.Params = append(m.Params, Field{Name: "o", Type: "Base"})
				}
				if g.r.chance(1, 5) {
					m.Static = true
					gm.static = true
				}
			}
			c.Methods = append(c.Methods, m)
			g.methods = append(g.methods, gm)
		}
	}
}

func (g *gen) fillWorkerBodies() {
	for _, gm := range g.methods {
		sc := &scope{g: g, mIndex: gm.m.Index, allowCalls: true, depth: 0}
		for _, p := range gm.m.Params {
			switch p.Type {
			case "int":
				sc.ints = append(sc.ints, p.Name)
			case "Base":
				sc.refs = append(sc.refs, refVar{name: p.Name, class: "Base"})
			}
		}
		if !gm.static {
			sc.refs = append(sc.refs, refVar{name: "this", class: gm.class})
		}
		if gm.depthParam {
			// Recursion scaffold: the depth parameter is read-only and the
			// guard/return pair is pinned so shrinking cannot unbound it.
			sc.ints = sc.ints[1:] // drop d from assignables
			sc.ros = append(sc.ros, "d")
			gm.m.Body = append(gm.m.Body, &Stmt{Pinned: true,
				Head: "if (d <= 0)", Body: []*Stmt{{Pinned: true, Flat: "return (a % 97);"}}})
			n := g.r.rangeInt(1, g.cfg.MaxStmts-2)
			for i := 0; i < n; i++ {
				gm.m.Body = append(gm.m.Body, g.stmt(sc))
			}
			gm.m.Body = append(gm.m.Body, &Stmt{Pinned: true,
				Flat: fmt.Sprintf("return (%s + this.m0((d - 1), %s));", sc.intExpr(1), sc.intExpr(1))})
			continue
		}
		n := g.r.rangeInt(2, g.cfg.MaxStmts)
		for i := 0; i < n; i++ {
			gm.m.Body = append(gm.m.Body, g.stmt(sc))
		}
		gm.m.Body = append(gm.m.Body, &Stmt{Pinned: true,
			Flat: fmt.Sprintf("return %s;", sc.intExpr(2))})
	}
}

// buildMain assembles Main.main: a fixed prelude guaranteeing non-trivial
// heap structure (a mixed dispatch pool, a dead Scratch, a worker call),
// then random statement soup, then the pinned consumer print.
func (g *gen) buildMain() {
	m := &Method{Name: "main", Static: true, Ret: "void"}
	sc := &scope{g: g, mIndex: -1, allowCalls: true, depth: 0}
	m.Body = append(m.Body, &Stmt{Flat: "int total = 0;", Pinned: true})
	sc.ints = append(sc.ints, "total")

	m.Body = append(m.Body, g.stmtRefPool(sc)...)
	m.Body = append(m.Body, g.stmtScratch(sc)...)
	if len(g.methods) > 0 {
		m.Body = append(m.Body, g.stmtWorkerCall(sc)...)
	}
	n := g.r.rangeInt(3, g.cfg.MaxStmts+3)
	for i := 0; i < n; i++ {
		m.Body = append(m.Body, g.stmt(sc))
	}
	m.Body = append(m.Body, &Stmt{Flat: "print(total);", Pinned: true})
	g.p.Classes = append(g.p.Classes, &Class{Name: "Main", Methods: []*Method{m}})
}

func (g *gen) classByName(name string) *Class {
	for _, c := range g.p.Classes {
		if c != nil && c.Name == name {
			return c
		}
	}
	return nil
}

// isAncestor reports whether a is b or an ancestor of b in the hierarchy.
func (g *gen) isAncestor(a, b string) bool {
	for b != "" {
		if a == b {
			return true
		}
		b = g.parent[b]
	}
	return false
}

// ---- statements ----

// stmt emits one random statement (possibly a short macro of statements
// folded into a block-free sequence returns a single Stmt; macros that
// need several appear via the block kinds below).
func (g *gen) stmt(sc *scope) *Stmt {
	// Weighted kinds, gated by availability.
	type kind struct {
		weight int
		emit   func() *Stmt
	}
	kinds := []kind{
		{4, func() *Stmt { return g.stmtDeclInt(sc) }},
		{3, func() *Stmt { return g.stmtAssign(sc) }},
		{2, func() *Stmt { return g.stmtDeclRef(sc) }},
		{3, func() *Stmt { return g.stmtFieldStore(sc) }},
		{1, func() *Stmt { return g.stmtDeclBool(sc) }},
		{1, func() *Stmt { return g.stmtLinkStore(sc) }},
		{1, func() *Stmt { return g.stmtArrStore(sc) }},
		{1, func() *Stmt { return g.stmtPrint(sc) }},
	}
	if sc.depth < g.cfg.MaxDepth {
		kinds = append(kinds,
			kind{3, func() *Stmt { return g.stmtIf(sc) }},
			kind{3, func() *Stmt { return g.stmtFor(sc) }},
			kind{1, func() *Stmt { return g.stmtWhile(sc) }},
			kind{1, func() *Stmt { return g.blockOf(sc, g.stmtLinkGuard) }},
			kind{1, func() *Stmt { return g.blockOf(sc, g.stmtIntArr) }},
			kind{1, func() *Stmt { return g.blockOf(sc, g.stmtRefPool) }},
			kind{1, func() *Stmt { return g.blockOf(sc, g.stmtScratch) }},
			kind{1, func() *Stmt { return g.stmtDispatchLoop(sc) }},
		)
	}
	if sc.allowCalls && g.callTargets(sc) != nil {
		kinds = append(kinds, kind{3, func() *Stmt { return g.blockOf(sc, g.stmtWorkerCall) }})
	}
	total := 0
	for _, k := range kinds {
		total += k.weight
	}
	pickAt := g.r.intn(total)
	for _, k := range kinds {
		pickAt -= k.weight
		if pickAt < 0 {
			return k.emit()
		}
	}
	return g.stmtDeclInt(sc)
}

// stmtSimple is the restricted statement set for hierarchy leaf methods.
func (g *gen) stmtSimple(sc *scope) *Stmt {
	if g.r.chance(1, 2) {
		return g.stmtFieldStore(sc)
	}
	return g.stmtDeclInt(sc)
}

// blockOf wraps a multi-statement macro in an always-taken if block so the
// macro's declarations scope cleanly and the shrinker can drop it whole.
func (g *gen) blockOf(sc *scope, macro func(*scope) []*Stmt) *Stmt {
	a, b, c, d, e, f := sc.save()
	sc.depth++
	body := macro(sc)
	sc.restore(a, b, c, d, e, f)
	sc.depth--
	return &Stmt{Head: "if (0 < 1)", Body: body}
}

func (g *gen) stmtDeclInt(sc *scope) *Stmt {
	name := g.fresh("v")
	s := &Stmt{Flat: fmt.Sprintf("int %s = %s;", name, sc.intExpr(2))}
	sc.ints = append(sc.ints, name)
	return s
}

func (g *gen) stmtDeclBool(sc *scope) *Stmt {
	name := g.fresh("b")
	s := &Stmt{Flat: fmt.Sprintf("boolean %s = %s;", name, sc.boolExpr(1))}
	sc.bools = append(sc.bools, name)
	return s
}

func (g *gen) stmtDeclRef(sc *scope) *Stmt {
	// Static type is sometimes widened to an ancestor so dispatch and
	// points-to see distinct static/dynamic types.
	dyn := pick(g.r, g.hier)
	static := dyn
	if g.r.chance(1, 2) {
		static = "Base"
	}
	if len(g.workers) > 0 && g.r.chance(1, 3) {
		w := pick(g.r, g.workers)
		dyn, static = w, w
	}
	name := g.fresh("r")
	s := &Stmt{Flat: fmt.Sprintf("%s %s = new %s();", static, name, dyn)}
	sc.refs = append(sc.refs, refVar{name: name, class: static})
	return s
}

func (g *gen) stmtAssign(sc *scope) *Stmt {
	if len(sc.ints) == 0 {
		return g.stmtDeclInt(sc)
	}
	v := pick(g.r, sc.ints)
	if len(sc.bools) > 0 && g.r.chance(1, 5) {
		b := pick(g.r, sc.bools)
		return &Stmt{Flat: fmt.Sprintf("%s = %s;", b, sc.boolExpr(1))}
	}
	return &Stmt{Flat: fmt.Sprintf("%s = %s;", v, sc.intExpr(2))}
}

func (g *gen) stmtFieldStore(sc *scope) *Stmt {
	if len(sc.refs) == 0 {
		return g.stmtDeclInt(sc)
	}
	rv := pick(g.r, sc.refs)
	flds := g.intFlds[rv.class]
	if len(flds) == 0 {
		return g.stmtDeclInt(sc)
	}
	return &Stmt{Flat: fmt.Sprintf("%s.%s = %s;", rv.name, pick(g.r, flds), sc.intExpr(2))}
}

// stmtLinkStore aliases hierarchy objects through the Base.link field.
func (g *gen) stmtLinkStore(sc *scope) *Stmt {
	var hs []refVar
	for _, rv := range sc.refs {
		if g.isAncestor("Base", rv.class) {
			hs = append(hs, rv)
		}
	}
	if len(hs) == 0 {
		return g.stmtDeclRef(sc)
	}
	dst := pick(g.r, hs)
	src := "null"
	if g.r.chance(4, 5) {
		src = pick(g.r, hs).name
	}
	return &Stmt{Flat: fmt.Sprintf("%s.link = %s;", dst.name, src)}
}

// stmtLinkGuard loads a possibly-null link field into a temp and consumes
// it under a null guard — the only pattern through which generated code
// reads reference fields. Returns a decl + guard pair, so it is wired in
// through blockOf.
func (g *gen) stmtLinkGuard(sc *scope) []*Stmt {
	var hs []refVar
	for _, rv := range sc.refs {
		if g.isAncestor("Base", rv.class) {
			hs = append(hs, rv)
		}
	}
	if len(hs) == 0 {
		return []*Stmt{g.stmtDeclRef(sc)}
	}
	src := pick(g.r, hs)
	tmp := g.fresh("t")
	decl := &Stmt{Flat: fmt.Sprintf("Base %s = %s.link;", tmp, src.name)}
	a, b, c, d, e, f := sc.save()
	sc.refs = append(sc.refs, refVar{name: tmp, class: "Base"})
	u := g.fresh("v")
	inner := []*Stmt{{Flat: fmt.Sprintf("int %s = (%s.fa + %s.tag());", u, tmp, tmp)}}
	sc.ints = append(sc.ints, u)
	n := g.r.rangeInt(0, 2)
	for i := 0; i < n; i++ {
		inner = append(inner, g.stmt(sc))
	}
	t := pick(g.r, sc.ints)
	inner = append(inner, &Stmt{Flat: fmt.Sprintf("%s = (%s + %s);", t, t, u)})
	sc.restore(a, b, c, d, e, f)
	guard := &Stmt{Head: fmt.Sprintf("if (%s != null)", tmp), Body: inner}
	return []*Stmt{decl, guard}
}

func (g *gen) stmtArrStore(sc *scope) *Stmt {
	if len(sc.iarrs) == 0 {
		return g.stmtAssign(sc)
	}
	av := pick(g.r, sc.iarrs)
	return &Stmt{Flat: fmt.Sprintf("%s[%s] = %s;", av.name, sc.indexExpr(av.n), sc.intExpr(2))}
}

func (g *gen) stmtPrint(sc *scope) *Stmt {
	return &Stmt{Flat: fmt.Sprintf("print(%s);", sc.intExpr(2))}
}

func (g *gen) stmtIf(sc *scope) *Stmt {
	s := &Stmt{Head: fmt.Sprintf("if (%s)", sc.boolExpr(2))}
	a, b, c, d, e, f := sc.save()
	sc.depth++
	n := g.r.rangeInt(1, 3)
	for i := 0; i < n; i++ {
		s.Body = append(s.Body, g.stmt(sc))
	}
	sc.restore(a, b, c, d, e, f)
	if g.r.chance(1, 2) {
		s.Else = []*Stmt{}
		n := g.r.rangeInt(1, 2)
		for i := 0; i < n; i++ {
			s.Else = append(s.Else, g.stmt(sc))
		}
		sc.restore(a, b, c, d, e, f)
	}
	sc.depth--
	return s
}

func (g *gen) stmtFor(sc *scope) *Stmt {
	iv := g.fresh("i")
	bound := g.r.rangeInt(2, 6)
	s := &Stmt{Head: fmt.Sprintf("for (int %s = 0; %s < %d; %s = %s + 1)", iv, iv, bound, iv, iv)}
	a, b, c, d, e, f := sc.save()
	sc.depth++
	sc.ros = append(sc.ros, iv)
	n := g.r.rangeInt(1, 3)
	for i := 0; i < n; i++ {
		s.Body = append(s.Body, g.stmt(sc))
	}
	sc.restore(a, b, c, d, e, f)
	sc.depth--
	return s
}

// stmtWhile builds a counted while loop whose decrement is pinned: the
// shrinker may empty the rest of the body but can never unbound the loop.
func (g *gen) stmtWhile(sc *scope) *Stmt {
	cv := g.fresh("w")
	init := &Stmt{Flat: fmt.Sprintf("int %s = %d;", cv, g.r.rangeInt(2, 8)), Pinned: true}
	loop := &Stmt{Head: fmt.Sprintf("while (%s > 0)", cv)}
	loop.Body = append(loop.Body, &Stmt{Flat: fmt.Sprintf("%s = %s - 1;", cv, cv), Pinned: true})
	a, b, c, d, e, f := sc.save()
	sc.depth++
	sc.ros = append(sc.ros, cv)
	n := g.r.rangeInt(1, 2)
	for i := 0; i < n; i++ {
		loop.Body = append(loop.Body, g.stmt(sc))
	}
	sc.restore(a, b, c, d, e, f)
	sc.depth--
	return &Stmt{Head: "if (0 < 1)", Body: []*Stmt{init, loop}}
}

// stmtIntArr declares and fills an int array, making it available for
// reads and stores.
func (g *gen) stmtIntArr(sc *scope) []*Stmt {
	name := g.fresh("arr")
	n := g.r.rangeInt(2, 6)
	iv := g.fresh("i")
	fill := &Stmt{Head: fmt.Sprintf("for (int %s = 0; %s < %s.length; %s = %s + 1)", iv, iv, name, iv, iv)}
	a, b, c, d, e, f := sc.save()
	sc.ros = append(sc.ros, iv)
	fill.Body = []*Stmt{{Flat: fmt.Sprintf("%s[%s] = %s;", name, iv, sc.intExpr(1))}}
	sc.restore(a, b, c, d, e, f)
	sc.iarrs = append(sc.iarrs, arrVar{name: name, n: n})
	return []*Stmt{
		{Flat: fmt.Sprintf("int[] %s = new int[%d];", name, n), Pinned: false},
		fill,
	}
}

// stmtRefPool declares a Base[] pool filled with mixed dynamic classes —
// the aliasing and dispatch-diversity workhorse.
func (g *gen) stmtRefPool(sc *scope) []*Stmt {
	name := g.fresh("pool")
	n := g.r.rangeInt(2, 5)
	iv := g.fresh("i")
	c1, c2 := pick(g.r, sc.g.hier), pick(g.r, sc.g.hier)
	fill := &Stmt{Head: fmt.Sprintf("for (int %s = 0; %s < %s.length; %s = %s + 1)", iv, iv, name, iv, iv)}
	cond := fmt.Sprintf("if ((%s %% 2) == 0)", iv)
	fill.Body = []*Stmt{{
		Head: cond,
		Body: []*Stmt{{Flat: fmt.Sprintf("%s[%s] = new %s();", name, iv, c1)}},
		Else: []*Stmt{{Flat: fmt.Sprintf("%s[%s] = new %s();", name, iv, c2)}},
	}}
	sc.rarrs = append(sc.rarrs, arrVar{name: name, n: n, elem: "Base"})
	return []*Stmt{
		{Flat: fmt.Sprintf("Base[] %s = new Base[%d];", name, n)},
		fill,
	}
}

// stmtDispatchLoop drives virtual dispatch through a mixed pool.
func (g *gen) stmtDispatchLoop(sc *scope) *Stmt {
	if len(sc.rarrs) == 0 || len(sc.ints) == 0 {
		return g.stmtIf(sc)
	}
	av := pick(g.r, sc.rarrs)
	acc := pick(g.r, sc.ints)
	iv := g.fresh("i")
	s := &Stmt{Head: fmt.Sprintf("for (int %s = 0; %s < %s.length; %s = %s + 1)", iv, iv, av.name, iv, iv)}
	a, b, c, d, e, f := sc.save()
	sc.depth++
	sc.ros = append(sc.ros, iv)
	s.Body = []*Stmt{{Flat: fmt.Sprintf("%s = (%s + %s[%s].step(%s));", acc, acc, av.name, iv, sc.intExpr(1))}}
	if g.r.chance(1, 2) {
		s.Body = append(s.Body, g.stmt(sc))
	}
	sc.restore(a, b, c, d, e, f)
	sc.depth--
	return s
}

// stmtScratch allocates a Scratch whose fields are only ever written —
// a low-utility structure planted by construction.
func (g *gen) stmtScratch(sc *scope) []*Stmt {
	name := g.fresh("s")
	out := []*Stmt{{Flat: fmt.Sprintf("Scratch %s = new Scratch();", name)}}
	for _, fld := range []string{"sa", "sb"} {
		out = append(out, &Stmt{Flat: fmt.Sprintf("%s.%s = %s;", name, fld, sc.intExpr(2))})
	}
	if g.r.chance(1, 2) {
		out = append(out, &Stmt{Flat: fmt.Sprintf("%s.sc = (%s.sa + %d);", name, name, g.r.intn(100))})
	}
	return out
}

// callTargets lists methods callable from the current position.
func (g *gen) callTargets(sc *scope) []*genMethod {
	var out []*genMethod
	for _, gm := range g.methods {
		if gm.m.Index > sc.mIndex {
			out = append(out, gm)
		}
	}
	return out
}

// stmtWorkerCall declares a receiver if needed and folds the call result
// into an accumulator.
func (g *gen) stmtWorkerCall(sc *scope) []*Stmt {
	targets := g.callTargets(sc)
	if len(targets) == 0 {
		return []*Stmt{g.stmtDeclInt(sc)}
	}
	gm := pick(g.r, targets)
	var out []*Stmt
	call := g.renderCall(sc, gm, &out)
	if len(sc.ints) > 0 && g.r.chance(3, 4) {
		acc := pick(g.r, sc.ints)
		out = append(out, &Stmt{Flat: fmt.Sprintf("%s = (%s + %s);", acc, acc, call)})
	} else {
		name := g.fresh("v")
		out = append(out, &Stmt{Flat: fmt.Sprintf("int %s = %s;", name, call)})
		sc.ints = append(sc.ints, name)
	}
	return out
}

// renderCall renders a call expression for gm, appending any receiver
// declaration statement to pre.
func (g *gen) renderCall(sc *scope, gm *genMethod, pre *[]*Stmt) string {
	var recv string
	if gm.static {
		recv = gm.class
	} else {
		for _, rv := range sc.refs {
			if rv.class == gm.class {
				recv = rv.name
				break
			}
		}
		if recv == "" {
			recv = g.fresh("r")
			*pre = append(*pre, &Stmt{Flat: fmt.Sprintf("%s %s = new %s();", gm.class, recv, gm.class)})
			sc.refs = append(sc.refs, refVar{name: recv, class: gm.class})
		}
	}
	args := make([]string, 0, len(gm.m.Params))
	for pi, p := range gm.m.Params {
		switch {
		case gm.depthParam && pi == 0:
			args = append(args, fmt.Sprintf("%d", g.r.rangeInt(1, 4)))
		case p.Type == "Base":
			args = append(args, sc.refArg(g))
		default:
			args = append(args, sc.intExpr(1))
		}
	}
	return fmt.Sprintf("%s.%s(%s)", recv, gm.m.Name, strings.Join(args, ", "))
}

// refArg yields a non-null Base-assignable argument.
func (sc *scope) refArg(g *gen) string {
	var hs []string
	for _, rv := range sc.refs {
		if g.isAncestor("Base", rv.class) {
			hs = append(hs, rv.name)
		}
	}
	if len(hs) > 0 && g.r.chance(2, 3) {
		return pick(g.r, hs)
	}
	return fmt.Sprintf("new %s()", pick(g.r, g.hier))
}

// ---- expressions ----

// indexExpr yields an in-bounds index for an array of length n: a loop
// variable reduced modulo the length, or a literal.
func (sc *scope) indexExpr(n int) string {
	if len(sc.ros) > 0 && sc.g.r.chance(2, 3) {
		return fmt.Sprintf("(%s %% %d)", pick(sc.g.r, sc.ros), n)
	}
	return fmt.Sprintf("%d", sc.g.r.intn(n))
}

func (sc *scope) intExpr(depth int) string {
	g := sc.g
	type cand struct {
		weight int
		emit   func() string
	}
	cands := []cand{
		{2, func() string { return fmt.Sprintf("%d", g.r.intn(1000)-100) }},
	}
	readable := append(append([]string{}, sc.ints...), sc.ros...)
	if len(readable) > 0 {
		cands = append(cands, cand{5, func() string { return pick(g.r, readable) }})
	}
	if len(sc.refs) > 0 {
		cands = append(cands, cand{3, func() string {
			rv := pick(g.r, sc.refs)
			flds := g.intFlds[rv.class]
			if len(flds) == 0 {
				return fmt.Sprintf("%d", g.r.intn(100))
			}
			return fmt.Sprintf("%s.%s", rv.name, pick(g.r, flds))
		}})
	}
	if len(sc.iarrs) > 0 {
		cands = append(cands, cand{2, func() string {
			av := pick(g.r, sc.iarrs)
			return fmt.Sprintf("%s[%s]", av.name, sc.indexExpr(av.n))
		}})
		cands = append(cands, cand{1, func() string {
			return pick(g.r, sc.iarrs).name + ".length"
		}})
	}
	if depth > 0 {
		cands = append(cands,
			cand{4, func() string {
				op := pick(g.r, []string{"+", "-", "*", "&", "|", "^"})
				return fmt.Sprintf("(%s %s %s)", sc.intExpr(depth-1), op, sc.intExpr(depth-1))
			}},
			cand{2, func() string {
				op := pick(g.r, []string{"/", "%"})
				return fmt.Sprintf("(%s %s %d)", sc.intExpr(depth-1), op, g.r.rangeInt(2, 9))
			}},
			cand{1, func() string {
				op := pick(g.r, []string{"<<", ">>"})
				return fmt.Sprintf("(%s %s %d)", sc.intExpr(depth-1), op, g.r.rangeInt(1, 5))
			}},
			cand{2, func() string { return fmt.Sprintf("hash(%s)", sc.intExpr(depth-1)) }},
			cand{1, func() string { return fmt.Sprintf("(0 - %s)", sc.intExpr(depth-1)) }},
		)
		// Virtual dispatch inside expressions through hierarchy receivers.
		// Gated on allowCalls: the hierarchy methods are call leaves, so a
		// step body must not dispatch (this.step(...) would never bottom
		// out).
		var hs []refVar
		for _, rv := range sc.refs {
			if g.isAncestor("Base", rv.class) {
				hs = append(hs, rv)
			}
		}
		if len(hs) > 0 && sc.allowCalls {
			cands = append(cands, cand{3, func() string {
				rv := pick(g.r, hs)
				if g.r.chance(1, 3) {
					return fmt.Sprintf("%s.tag()", rv.name)
				}
				return fmt.Sprintf("%s.step(%s)", rv.name, sc.intExpr(depth-1))
			}})
		}
		if len(sc.rarrs) > 0 && sc.allowCalls {
			cands = append(cands, cand{2, func() string {
				av := pick(g.r, sc.rarrs)
				return fmt.Sprintf("%s[%s].step(%s)", av.name, sc.indexExpr(av.n), sc.intExpr(depth-1))
			}})
		}
		if g.r.chance(1, 12) {
			cands = append(cands, cand{1, func() string {
				return fmt.Sprintf("(dbQuery(%s) %% 1000)", sc.intExpr(depth-1))
			}})
		}
	}
	total := 0
	for _, c := range cands {
		total += c.weight
	}
	at := g.r.intn(total)
	for _, c := range cands {
		at -= c.weight
		if at < 0 {
			return c.emit()
		}
	}
	return "1"
}

func (sc *scope) boolExpr(depth int) string {
	g := sc.g
	roll := g.r.intn(10)
	switch {
	case roll < 5 || depth == 0:
		op := pick(g.r, []string{"<", "<=", ">", ">=", "==", "!="})
		return fmt.Sprintf("(%s %s %s)", sc.intExpr(1), op, sc.intExpr(1))
	case roll < 6 && len(sc.bools) > 0:
		return pick(g.r, sc.bools)
	case roll < 7 && len(sc.bools) > 0:
		return fmt.Sprintf("(!%s)", pick(g.r, sc.bools))
	case roll < 8:
		// Reference comparisons, restricted to comparable static types.
		var hs []refVar
		for _, rv := range sc.refs {
			if g.isAncestor("Base", rv.class) {
				hs = append(hs, rv)
			}
		}
		if len(hs) >= 2 {
			a, b := pick(g.r, hs), pick(g.r, hs)
			if g.isAncestor(a.class, b.class) || g.isAncestor(b.class, a.class) {
				return fmt.Sprintf("(%s == %s)", a.name, b.name)
			}
		}
		if len(hs) >= 1 {
			return fmt.Sprintf("(%s != null)", pick(g.r, hs).name)
		}
		return fmt.Sprintf("(%s < %s)", sc.intExpr(1), sc.intExpr(1))
	default:
		op := pick(g.r, []string{"&&", "||"})
		return fmt.Sprintf("(%s %s %s)", sc.boolExpr(depth-1), op, sc.boolExpr(depth-1))
	}
}
