package staticanalysis

import (
	"context"
	"fmt"

	"lowutil/internal/escape"
	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/ssa"
)

// Kind classifies a vet finding.
type Kind uint8

const (
	// KindDeadStore: a local definition whose value no path ever reads.
	KindDeadStore Kind = iota
	// KindWriteOnlyField: a field stored somewhere but loaded nowhere in the
	// whole program — the static shadow of a dynamically zero-benefit
	// location.
	KindWriteOnlyField
	// KindUnusedAlloc: an allocation whose object is only ever constructed
	// (stored into) and never read from or passed anywhere.
	KindUnusedAlloc
	// KindUnreachable: a basic block no path from the method entry reaches.
	KindUnreachable
	// KindUninitRead: a read of a slot some path reaches without
	// initializing (reads no path initializes are rejected at seal time).
	KindUninitRead
	// KindCalleeClobbered: a definition whose every use passes the value to
	// a call-argument position that no resolved callee ever reads — dead
	// work the per-method dead-store check cannot see.
	KindCalleeClobbered
	// KindConfinedAllocInLoop: a non-escaping allocation inside a loop whose
	// every use stays within the loop body — one fresh object per iteration
	// where a single reused object would do.
	KindConfinedAllocInLoop
	// KindCopyChain: an allocation exhibiting the alloc → populate →
	// copy-out → drop shape: the structure is populated, its contents are
	// copied into a different structure, and the container itself is
	// dropped — a transient copy vehicle.
	KindCopyChain
)

var kindNames = [...]string{
	KindDeadStore:           "dead-store",
	KindWriteOnlyField:      "write-only-field",
	KindUnusedAlloc:         "unused-alloc",
	KindUnreachable:         "unreachable-code",
	KindUninitRead:          "uninit-read",
	KindCalleeClobbered:     "callee-clobbered-store",
	KindConfinedAllocInLoop: "confined-alloc-in-loop",
	KindCopyChain:           "copy-chain",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Finding is one vet diagnostic, anchored to a method pc (or to a field for
// program-level findings, with Method == "" and PC == -1).
type Finding struct {
	Kind   Kind
	Class  string
	Method string
	PC     int
	Line   int
	Detail string
}

func (f Finding) String() string {
	if f.Method == "" {
		return fmt.Sprintf("%s: [%s] %s", f.Class, f.Kind, f.Detail)
	}
	loc := fmt.Sprintf("%s.%s:%d", f.Class, f.Method, f.PC)
	if f.Line > 0 {
		loc = fmt.Sprintf("%s (line %d)", loc, f.Line)
	}
	return fmt.Sprintf("%s: [%s] %s", loc, f.Kind, f.Detail)
}

// deadStoreOps are the value-producing opcodes eligible for dead-store
// reporting: recomputable work with no heap write, call, allocation, or
// consumer semantics. Loads are included — an unread loaded value is exactly
// the waste the paper measures — but allocations are left to the
// unused-alloc check, and calls/natives may have effects.
var deadStoreOps = map[ir.Op]bool{
	ir.OpConst:      true,
	ir.OpMove:       true,
	ir.OpBin:        true,
	ir.OpNeg:        true,
	ir.OpNot:        true,
	ir.OpInstanceOf: true,
	ir.OpLoadField:  true,
	ir.OpLoadStatic: true,
	ir.OpALoad:      true,
	ir.OpArrayLen:   true,
}

// VetDense runs the full static diagnostics suite using the dense
// (reaching-definitions) per-method engine. It predates the SSA engine in
// vetssa.go and is kept as the reference point for the differential test:
// every SSA finding class is pinned to this engine's results, kind by kind.
func VetDense(prog *ir.Program) []Finding {
	return VetDenseWith(prog, background(rtaHeap(context.Background(), prog)))
}

// VetDenseWith is VetDense over a caller-supplied interprocedural analysis.
// A nil analysis degrades every whole-program check to its single-method
// approximation (the pre-call-graph behavior).
func VetDenseWith(prog *ir.Program, an *interproc.Analysis) []Finding {
	return background(vetWith(context.Background(), prog, an, vetMethod))
}

// background unwraps the result of a call made under the background
// context, which never cancels and leaves the pipeline no other failure.
func background[T any](v T, err error) T {
	if err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	return v
}

// vetWith runs the suite over prog with the given per-method engine: the
// program-level findings (write-only fields and the escape lints), then
// every method's, sorted. It polls ctx before each method and once after
// the last, so a deadline that passed during the run fails it.
func vetWith(ctx context.Context, prog *ir.Program, an *interproc.Analysis, perMethod func(*ir.Method, *wholeProgram) []Finding) ([]Finding, error) {
	wp, err := newWholeProgram(ctx, an)
	if err != nil {
		return nil, err
	}
	out := append(writeOnlyFields(prog, an), escapeLints(wp.esc)...)
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out = append(out, perMethod(m, wp)...)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sortFindings(out)
	return out, nil
}

// rtaHeap is both engines' default pipeline: an RTA call graph with
// context-insensitive points-to. No vet check reads the static Gcost, so it
// is not built.
func rtaHeap(ctx context.Context, prog *ir.Program) (*interproc.Analysis, error) {
	return interproc.AnalyzeHeapContext(ctx, prog, interproc.Config{Mode: interproc.RTA})
}

// wholeProgram holds the whole-program facts both engines read, built once
// per vet run. Without an analysis it is empty, and every whole-program
// check falls back to its single-method approximation or stays silent.
type wholeProgram struct {
	// an is the interprocedural analysis, and the owner of every method's
	// SSA form (an.Func) the SSA engine, the escape pass and paramsRead
	// read.
	an *interproc.Analysis
	// esc is the escape pass, the source of the escape lints.
	esc *escape.Result
	// unusedByPT is interprocUnusedObjects.
	unusedByPT map[int]bool
	// paramRead[m][i] reports that the reachable method m reads formal i:
	// some use, base or value, of its entry definition. A formal never read
	// is dead.
	paramRead map[*ir.Method][]bool
}

func newWholeProgram(ctx context.Context, an *interproc.Analysis) (*wholeProgram, error) {
	if an == nil {
		return &wholeProgram{}, nil
	}
	esc, err := escape.AnalyzeContext(ctx, an)
	if err != nil {
		return nil, err
	}
	return &wholeProgram{
		an:         an,
		esc:        esc,
		unusedByPT: interprocUnusedObjects(an),
		paramRead:  paramsRead(an),
	}, nil
}

// covers reports whether the interprocedural checks apply to m: there is
// an analysis and m is on its call graph.
func (wp *wholeProgram) covers(m *ir.Method) bool { return wp.an != nil && wp.an.CG.Reachable(m) }

// paramsRead marks, per call-graph-reachable method, the formals whose entry
// definition reaches some operand: in SSA form, the formal's parameter
// value is an operand of a reachable instruction, directly or through phis.
// One walk of the SSA uses from the parameter values answers it.
func paramsRead(an *interproc.Analysis) map[*ir.Method][]bool {
	read := make(map[*ir.Method][]bool, len(an.CG.Methods()))
	var work []ssa.ValID
	for _, m := range an.CG.Methods() {
		f := an.Func(m)
		read[m] = make([]bool, m.Params)
		seen := make(map[ssa.ValID]bool)
		for v := range f.Vals {
			if val := &f.Vals[v]; val.Kind == ssa.VParam && val.Slot < m.Params {
				work = append(work[:0], ssa.ValID(v))
				for len(work) > 0 && !read[m][val.Slot] {
					w := work[len(work)-1]
					work = work[:len(work)-1]
					for _, u := range f.Uses(w) {
						if !u.IsPhi() {
							read[m][val.Slot] = true
							break
						}
						if !seen[u.Phi] {
							seen[u.Phi] = true
							work = append(work, u.Phi)
						}
					}
				}
			}
		}
	}
	return read
}

// argIgnored reports whether argument position ai of call site in is dead
// in every resolved target: the caller computes the value and no callee
// reads it. False when the site resolves to no target.
func (wp *wholeProgram) argIgnored(in *ir.Instr, ai int) bool {
	ts := wp.an.CG.Targets(in)
	if len(ts) == 0 {
		return false
	}
	for _, t := range ts {
		if read := wp.paramRead[t]; ai >= len(read) || read[ai] {
			return false
		}
	}
	return true
}

// writeOnlyFields finds instance and static fields stored somewhere but
// loaded nowhere in the program. With a call graph, loads and stores in
// unreachable methods no longer count: a field whose every load sits in dead
// code is reported (with a distinguishing message), and a field stored only
// in dead code is not reported at all.
func writeOnlyFields(prog *ir.Program, an *interproc.Analysis) []Finding {
	loaded := make(map[*ir.Field]bool)
	stored := make(map[*ir.Field]bool)
	loadedAnywhere := make(map[*ir.Field]bool)
	staticLoaded := make(map[*ir.StaticField]bool)
	staticStored := make(map[*ir.StaticField]bool)
	staticLoadedAnywhere := make(map[*ir.StaticField]bool)
	for _, in := range prog.Instrs {
		reachable := an == nil || an.CG.Reachable(in.Method)
		switch in.Op {
		case ir.OpLoadField:
			loadedAnywhere[in.Field] = true
			if reachable {
				loaded[in.Field] = true
			}
		case ir.OpStoreField:
			if reachable {
				stored[in.Field] = true
			}
		case ir.OpLoadStatic:
			staticLoadedAnywhere[in.Static] = true
			if reachable {
				staticLoaded[in.Static] = true
			}
		case ir.OpStoreStatic:
			if reachable {
				staticStored[in.Static] = true
			}
		}
	}
	detail := func(kind, name string, loadedSomewhere bool) string {
		if loadedSomewhere {
			return fmt.Sprintf("%s %s is stored but loaded only in unreachable code", kind, name)
		}
		return fmt.Sprintf("%s %s is stored but never loaded", kind, name)
	}
	var out []Finding
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			if stored[f] && !loaded[f] {
				out = append(out, Finding{
					Kind:   KindWriteOnlyField,
					Class:  c.Name,
					PC:     -1,
					Detail: detail("field", f.QualifiedName(), loadedAnywhere[f]),
				})
			}
		}
	}
	for _, sf := range prog.Statics {
		if staticStored[sf] && !staticLoaded[sf] {
			out = append(out, Finding{
				Kind:   KindWriteOnlyField,
				Class:  sf.Class.Name,
				PC:     -1,
				Detail: detail("static field", sf.QualifiedName(), staticLoadedAnywhere[sf]),
			})
		}
	}
	return out
}

// interprocUnusedObjects returns, per allocation-site instruction ID, whether
// the whole-program points-to relation proves the objects allocated there are
// never read: no reachable heap read uses them as a base, and no reachable
// predicate, instanceof, or native consumes the reference itself. Writes into
// the object (construction) do not count as uses, matching the dynamic
// zero-benefit criterion.
func interprocUnusedObjects(an *interproc.Analysis) map[int]bool {
	if an == nil {
		return nil
	}
	used := make(map[interproc.ObjID]bool)
	mark := func(m *ir.Method, slot int) {
		for _, o := range an.PT.VarPT(m, slot) {
			used[o] = true
		}
	}
	for _, m := range an.CG.Methods() {
		for pc := range m.Code {
			in := &m.Code[pc]
			switch in.Op {
			case ir.OpLoadField, ir.OpALoad, ir.OpArrayLen:
				mark(m, in.A)
			case ir.OpIf:
				mark(m, in.A)
				mark(m, in.B)
			case ir.OpInstanceOf:
				mark(m, in.A)
			case ir.OpNative:
				for _, a := range in.Args {
					mark(m, a)
				}
			}
		}
	}
	unused := make(map[int]bool)
	objsBySite := make(map[int][]interproc.ObjID)
	for id := range an.PT.Objects {
		site := an.PT.Objects[id].Site
		objsBySite[site.ID] = append(objsBySite[site.ID], interproc.ObjID(id))
	}
	for siteID, objs := range objsBySite {
		dead := true
		for _, o := range objs {
			if used[o] {
				dead = false
				break
			}
		}
		unused[siteID] = dead
	}
	return unused
}

// Use is one read of a definition's value.
type Use struct {
	// PC is the reading instruction.
	PC int
	// Base marks a base-pointer read (the object/array operand of a field or
	// element access), which thin slicing excludes from value flow.
	Base bool
}

// defUse transposes m's reaching definitions into def-use chains: for each
// definition d (a pc with a destination, or a parameter pseudo-def), the
// uses its value can reach. Locals are frame-private, so the chains are
// complete — there is no interprocedural aliasing to miss.
func defUse(rd *ir.ReachingDefs) [][]Use {
	uses := make([][]Use, len(rd.Method.Code)+rd.Method.Params)
	for pc, ops := range rd.Operands {
		for _, op := range ops {
			for _, d := range op.Defs {
				uses[d] = append(uses[d], Use{PC: pc, Base: op.Base})
			}
		}
	}
	return uses
}

// vetMethod runs the per-method checks: dead stores, unused allocations,
// unreachable code, possibly-uninitialized reads, and (given an analysis)
// callee-clobbered stores.
func vetMethod(m *ir.Method, wp *wholeProgram) []Finding {
	cfg := ir.NewCFG(m)
	du := defUse(ir.NewReachingDefs(m, cfg))
	var out []Finding

	finding := func(kind Kind, pc int, format string, args ...any) Finding {
		return Finding{
			Kind:   kind,
			Class:  m.Class.Name,
			Method: m.Name,
			PC:     pc,
			Line:   m.Code[pc].Line,
			Detail: fmt.Sprintf(format, args...),
		}
	}

	// Dead stores: a definition with no uses at all. Zero/null constants are
	// exempt — the MJ front end synthesizes them for every declaration
	// without an initializer, and `int x = 0; if (...) x = 1;` is idiomatic.
	for pc := range m.Code {
		in := &m.Code[pc]
		if in.Def() < 0 || !deadStoreOps[in.Op] || !cfg.Reachable(cfg.BlockOf[pc]) {
			continue
		}
		if in.Op == ir.OpConst && (in.IsNull || in.Imm == 0) {
			continue
		}
		if len(du[pc]) == 0 {
			out = append(out, finding(KindDeadStore, pc,
				"value of %s (%s) is never used", m.LocalName(in.Dst), in))
		}
	}

	// Unused allocations. The per-method rule: the object is only ever
	// written into (it is a store base) or copied between locals; it is
	// never loaded from, never compared, and never escapes into a call, the
	// heap, or the return value. With whole-program points-to the escape
	// bail-outs go away: an object may be stored into the heap and passed
	// between methods, and is still dead when no reachable instruction ever
	// reads through it or consumes the reference.
	covered := wp.covers(m)
	for pc := range m.Code {
		in := &m.Code[pc]
		if !in.IsAlloc() || !cfg.Reachable(cfg.BlockOf[pc]) {
			continue
		}
		switch {
		case allocIsUnused(m, du, pc):
			out = append(out, finding(KindUnusedAlloc, pc,
				"allocation (%s) never escapes and is never read", in))
		case covered && wp.unusedByPT[in.ID]:
			out = append(out, finding(KindUnusedAlloc, pc,
				"allocation (%s) is never read through any alias", in))
		}
	}

	// Callee-clobbered stores: a computed value whose every use hands it to
	// a call-argument position that no resolved target reads. The dead-store
	// check requires an empty use set; this is its interprocedural
	// completion for uses that cross into callees and die there.
	if covered {
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Def() < 0 || !deadStoreOps[in.Op] || !cfg.Reachable(cfg.BlockOf[pc]) {
				continue
			}
			if in.Op == ir.OpConst && (in.IsNull || in.Imm == 0) {
				continue
			}
			if len(du[pc]) == 0 || !usesAllClobbered(m, wp, du[pc], in.Dst) {
				continue
			}
			out = append(out, finding(KindCalleeClobbered, pc,
				"value of %s (%s) is passed only to parameters no callee reads",
				m.LocalName(in.Dst), in))
		}
	}

	// Unreachable code. Blocks holding only gotos and void returns are
	// compiler plumbing (the MJ front end emits a jump after a returning
	// then-branch and a trailing return after a returning body) and are not
	// reported.
	for b := range cfg.Blocks {
		blk := &cfg.Blocks[b]
		if cfg.Reachable(b) {
			continue
		}
		artifact := true
		for pc := blk.Start; pc < blk.End; pc++ {
			in := &m.Code[pc]
			if in.Op != ir.OpGoto && !(in.Op == ir.OpReturn && !in.HasA) {
				artifact = false
				break
			}
		}
		if !artifact {
			out = append(out, finding(KindUnreachable, blk.Start,
				"unreachable code (%d instructions)", blk.End-blk.Start))
		}
	}

	// Possibly-uninitialized reads: a must-initialized forward analysis
	// (intersection over predecessors). A read outside the must-set has some
	// path that bypasses the slot's initialization. Reads with *no*
	// initializing path are rejected by the IR validator before a program
	// gets here.
	out = append(out, uninitReads(m, cfg)...)
	return out
}

// usesAllClobbered reports whether every given use of a value in slot is a
// call argument at a position every resolved target ignores. A slot may
// appear at several argument positions of one call; all of them must be
// ignored.
func usesAllClobbered(m *ir.Method, wp *wholeProgram, uses []Use, slot int) bool {
	for _, u := range uses {
		c := &m.Code[u.PC]
		if c.Op != ir.OpCall {
			return false
		}
		for i, a := range c.Args {
			if a == slot && !wp.argIgnored(c, i) {
				return false
			}
		}
	}
	return true
}

// allocIsUnused walks the def-use chains from the allocation at pc,
// following local-to-local moves, and reports whether every transitive use
// is a construction-only use (a store with the object as base).
func allocIsUnused(m *ir.Method, du [][]Use, pc int) bool {
	visited := map[int]bool{pc: true}
	work := []int{pc}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range du[d] {
			in := &m.Code[u.PC]
			switch {
			case in.Op == ir.OpMove:
				if !visited[u.PC] {
					visited[u.PC] = true
					work = append(work, u.PC)
				}
			case u.Base && (in.Op == ir.OpStoreField || in.Op == ir.OpAStore):
				// Writing into the object: construction work only.
			default:
				// Loaded from, compared, returned, passed, or stored as a
				// value — the object is used.
				return false
			}
		}
	}
	return true
}

// uninitReads reports reads of slots not must-initialized at the read point.
func uninitReads(m *ir.Method, cfg *ir.CFG) []Finding {
	nb := cfg.NumBlocks()
	if nb == 0 {
		return nil
	}
	boundary := NewBitSet(m.NumLocals)
	for s := 0; s < m.Params && s < m.NumLocals; s++ {
		boundary.Set(s)
	}
	p := &Problem{
		CFG:       cfg,
		Bits:      m.NumLocals,
		Intersect: true,
		Gen:       make([]BitSet, nb),
		Kill:      make([]BitSet, nb),
		Boundary:  boundary,
	}
	for b := 0; b < nb; b++ {
		gen := NewBitSet(m.NumLocals)
		blk := &cfg.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			if d := m.Code[pc].Def(); d >= 0 {
				gen.Set(d)
			}
		}
		p.Gen[b] = gen
		p.Kill[b] = NewBitSet(m.NumLocals)
	}
	sol := Solve(p)

	var out []Finding
	cur := NewBitSet(m.NumLocals)
	for _, b := range cfg.RPO {
		blk := &cfg.Blocks[b]
		cur.CopyFrom(sol.In[b])
		for pc := blk.Start; pc < blk.End; pc++ {
			in := &m.Code[pc]
			reported := false
			in.Uses(func(s int, _ bool) {
				if reported || cur.Has(s) {
					return
				}
				reported = true
				out = append(out, Finding{
					Kind:   KindUninitRead,
					Class:  m.Class.Name,
					Method: m.Name,
					PC:     pc,
					Line:   in.Line,
					Detail: fmt.Sprintf("%s may be read before initialization (%s)", m.LocalName(s), in),
				})
			})
			if d := in.Def(); d >= 0 {
				cur.Set(d)
			}
		}
	}
	return out
}

// WriteOnlyFieldIDs returns the dense IDs of instance fields that are stored
// but never loaded anywhere in the program — the static cross-check the
// cost-benefit report compares against dynamically zero-benefit locations.
func WriteOnlyFieldIDs(prog *ir.Program) map[int]bool {
	loaded := make(map[int]bool)
	stored := make(map[int]bool)
	for _, in := range prog.Instrs {
		switch in.Op {
		case ir.OpLoadField:
			loaded[in.Field.ID] = true
		case ir.OpStoreField:
			stored[in.Field.ID] = true
		}
	}
	out := make(map[int]bool)
	for id := range stored {
		if !loaded[id] {
			out[id] = true
		}
	}
	return out
}
