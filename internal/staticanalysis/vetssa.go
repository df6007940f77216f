package staticanalysis

import (
	"context"
	"fmt"
	"sort"

	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/ssa"
)

// The SSA-backed vet engine. The dense engine (vet.go) answers every
// question by consulting a reaching-definitions relation; this engine walks
// sparse def-use chains over pruned SSA instead, which buys three precision
// improvements the dense lints cannot express:
//
//   - dead stores are found *transitively*: a computation whose value feeds
//     only other dead computations is itself dead (DCE-style liveness over
//     values, not an empty-use-set test);
//   - possibly-uninitialized reads follow the undef value through phis along
//     SCCP-executable edges only, so a read guarded by a constant predicate
//     that rules the uninitialized path out is no longer flagged;
//   - unreachable code includes blocks that are CFG-reachable but dead under
//     sparse conditional constant propagation (reported with a distinct
//     message).
//
// The differential test in vet_differential_test.go pins the relation to the
// dense engine per kind: dead stores and callee-clobbered stores only grow,
// uninitialized-read reports only shrink, and unreachable-code reports grow
// only by SCCP-proven blocks.

// Vet runs the full static diagnostics suite over prog using the SSA engine
// and returns the findings sorted by (class, method, pc, kind) so output is
// byte-identical across runs. The interprocedural checks run over an RTA
// call graph with context-insensitive points-to; use VetWith to supply a
// different pipeline, and VetDense for the dense (reaching-definitions)
// engine.
func Vet(prog *ir.Program) []Finding { return background(VetContext(context.Background(), prog)) }

// VetContext is Vet under ctx: the call graph, points-to, constant
// propagation and escape fixpoints poll it, and so does the per-method
// loop, before each method and after the last. When ctx is done the
// partial findings are discarded and the context error returned.
func VetContext(ctx context.Context, prog *ir.Program) ([]Finding, error) {
	an, err := rtaHeap(ctx, prog)
	if err != nil {
		return nil, err
	}
	return vetWith(ctx, prog, an, vetMethodSSA)
}

// VetWith is Vet over a caller-supplied interprocedural analysis. A nil
// analysis degrades every whole-program check to its single-method
// approximation.
func VetWith(prog *ir.Program, an *interproc.Analysis) []Finding {
	return background(vetWith(context.Background(), prog, an, vetMethodSSA))
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
}

// methodSSA returns m's SSA form and its unseeded SCCP result. The form is
// the analysis's one form of m, the same one its constant propagation and
// escape pass read, also for a method off the call graph; without an
// analysis it is built here.
func (wp *wholeProgram) methodSSA(m *ir.Method) (*ssa.Func, *ssa.SCCP) {
	var f *ssa.Func
	if wp.an != nil {
		f = wp.an.Func(m)
	} else {
		f = ssa.Build(m, nil)
	}
	return f, ssa.RunSCCP(f)
}

// vetMethodSSA runs the per-method checks over the method's SSA form.
func vetMethodSSA(m *ir.Method, wp *wholeProgram) []Finding {
	f, sc := wp.methodSSA(m)
	cfg := f.CFG
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

	// Value liveness, DCE-style: roots are the operands of every reachable
	// instruction with effects or consumer semantics (anything outside
	// deadStoreOps); liveness propagates backwards through pure computations
	// and phis. A pure def whose value never transitively reaches a root is
	// dead work even if it has uses.
	live := make([]bool, f.NumVals())
	var work []ssa.ValID
	mark := func(v ssa.ValID) {
		if v != ssa.None && !live[v] {
			live[v] = true
			work = append(work, v)
		}
	}
	for pc := range m.Code {
		if !cfg.Reachable(cfg.BlockOf[pc]) || deadStoreOps[m.Code[pc].Op] {
			continue
		}
		for _, v := range f.Operands[pc] {
			mark(v)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		val := &f.Vals[v]
		switch val.Kind {
		case ssa.VInstr:
			if deadStoreOps[m.Code[val.PC].Op] {
				for _, o := range f.Operands[val.PC] {
					mark(o)
				}
			}
		case ssa.VPhi:
			for _, a := range val.Args {
				mark(a)
			}
		}
	}

	// Dead stores. Zero/null constants are exempt — the MJ front end
	// synthesizes them for every declaration without an initializer, and
	// `int x = 0; if (...) x = 1;` is idiomatic.
	deadVal := func(pc int) bool {
		in := &m.Code[pc]
		if in.Def() < 0 || !deadStoreOps[in.Op] || !cfg.Reachable(cfg.BlockOf[pc]) {
			return false
		}
		if in.Op == ir.OpConst && (in.IsNull || in.Imm == 0) {
			return false
		}
		return !live[f.DefOf[pc]]
	}
	for pc := range m.Code {
		if !deadVal(pc) {
			continue
		}
		in := &m.Code[pc]
		if len(f.Uses(f.DefOf[pc])) == 0 {
			out = append(out, finding(KindDeadStore, pc,
				"value of %s (%s) is never used", m.LocalName(in.Dst), in))
		} else {
			out = append(out, finding(KindDeadStore, pc,
				"value of %s (%s) feeds only dead computations", m.LocalName(in.Dst), in))
		}
	}

	// Unused allocations: every transitive use of the reference — through
	// moves *and phis* — is a construction-only store base. The
	// interprocedural arm is identical to the dense engine's.
	covered := wp.covers(m)
	for pc := range m.Code {
		in := &m.Code[pc]
		if !in.IsAlloc() || !cfg.Reachable(cfg.BlockOf[pc]) {
			continue
		}
		switch {
		case allocUnusedSSA(f, f.DefOf[pc]):
			out = append(out, finding(KindUnusedAlloc, pc,
				"allocation (%s) never escapes and is never read", in))
		case covered && wp.unusedByPT[in.ID]:
			out = append(out, finding(KindUnusedAlloc, pc,
				"allocation (%s) is never read through any alias", in))
		}
	}

	// Callee-clobbered stores: the value's effective uses — through moves and
	// phis — all hand it to call-argument positions no resolved target reads.
	if covered {
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Def() < 0 || !deadStoreOps[in.Op] || !cfg.Reachable(cfg.BlockOf[pc]) {
				continue
			}
			if in.Op == ir.OpConst && (in.IsNull || in.Imm == 0) {
				continue
			}
			if deadVal(pc) {
				continue // already a dead store
			}
			if effectiveUsesAllClobbered(f, wp, f.DefOf[pc]) {
				out = append(out, finding(KindCalleeClobbered, pc,
					"value of %s (%s) is passed only to parameters no callee reads",
					m.LocalName(in.Dst), in))
			}
		}
	}

	// Unreachable code: CFG-unreachable blocks (as in the dense engine), plus
	// blocks SCCP proves dead through constant branches. Blocks holding only
	// gotos and void returns are compiler plumbing and are not reported.
	for b := range cfg.Blocks {
		blk := &cfg.Blocks[b]
		cfgDead := !cfg.Reachable(b)
		sccpDead := !cfgDead && !sc.BlockExec[b]
		if !cfgDead && !sccpDead {
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
		if artifact {
			continue
		}
		if cfgDead {
			out = append(out, finding(KindUnreachable, blk.Start,
				"unreachable code (%d instructions)", blk.End-blk.Start))
		} else {
			out = append(out, finding(KindUnreachable, blk.Start,
				"unreachable under constant propagation (%d instructions)", blk.End-blk.Start))
		}
	}

	// Possibly-uninitialized reads: the undef value tainted through phis
	// along SCCP-executable edges. A read whose operand can resolve to undef
	// has an executable path that bypasses initialization; constant-false
	// guards that rule the path out no longer produce a report.
	out = append(out, uninitReadsSSA(f, sc)...)
	return out
}

// allocUnusedSSA walks the use chains of the allocation's value through
// moves and phis; every terminal use must be a store with the object as base.
func allocUnusedSSA(f *ssa.Func, root ssa.ValID) bool {
	visited := map[ssa.ValID]bool{root: true}
	work := []ssa.ValID{root}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range f.Uses(v) {
			if u.IsPhi() {
				if !visited[u.Phi] {
					visited[u.Phi] = true
					work = append(work, u.Phi)
				}
				continue
			}
			in := &f.M.Code[u.PC]
			switch {
			case in.Op == ir.OpMove:
				d := f.DefOf[u.PC]
				if !visited[d] {
					visited[d] = true
					work = append(work, d)
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

// effectiveUsesAllClobbered resolves the value's uses through moves and phis
// and reports whether at least one effective use exists and every one is an
// OpCall argument position that all resolved targets ignore.
func effectiveUsesAllClobbered(f *ssa.Func, wp *wholeProgram, root ssa.ValID) bool {
	visited := map[ssa.ValID]bool{root: true}
	work := []ssa.ValID{root}
	any := false
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range f.Uses(v) {
			if u.IsPhi() {
				if !visited[u.Phi] {
					visited[u.Phi] = true
					work = append(work, u.Phi)
				}
				continue
			}
			in := &f.M.Code[u.PC]
			if in.Op == ir.OpMove {
				d := f.DefOf[u.PC]
				if !visited[d] {
					visited[d] = true
					work = append(work, d)
				}
				continue
			}
			if in.Op != ir.OpCall {
				return false
			}
			// Uses order for OpCall is the Args order, so OpIdx is the
			// argument position.
			if !wp.argIgnored(in, u.OpIdx) {
				return false
			}
			any = true
		}
	}
	return any
}

// uninitReadsSSA reports reads whose operand value can be undef along an
// executable path. At most one finding per instruction (first offending
// operand in Uses order), matching the dense engine.
func uninitReadsSSA(f *ssa.Func, sc *ssa.SCCP) []Finding {
	m := f.M
	tainted := make([]bool, f.NumVals())
	var work []ssa.ValID
	for v := 0; v < f.NumVals(); v++ {
		if f.Vals[v].Kind == ssa.VUndef {
			tainted[v] = true
			work = append(work, ssa.ValID(v))
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range f.Uses(v) {
			if !u.IsPhi() || tainted[u.Phi] {
				continue
			}
			if !sc.PhiArgExecutable(f.Vals[u.Phi].Block, u.ArgIdx) {
				continue
			}
			tainted[u.Phi] = true
			work = append(work, u.Phi)
		}
	}
	var out []Finding
	for pc := range m.Code {
		if !sc.Executable(pc) {
			continue
		}
		for _, v := range f.Operands[pc] {
			if !tainted[v] {
				continue
			}
			in := &m.Code[pc]
			out = append(out, Finding{
				Kind:   KindUninitRead,
				Class:  m.Class.Name,
				Method: m.Name,
				PC:     pc,
				Line:   in.Line,
				Detail: fmt.Sprintf("%s may be read before initialization (%s)", m.LocalName(f.Vals[v].Slot), in),
			})
			break
		}
	}
	return out
}
