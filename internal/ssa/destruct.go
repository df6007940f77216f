package ssa

import (
	"fmt"

	"lowutil/internal/ir"
)

// SSA destruction: rewrite the method body back to flat IR with one fresh
// local slot per SSA value and explicit copies on the incoming edges of every
// phi. The rewrite drops CFG-unreachable blocks (renaming never visited them,
// so they have no SSA form; no reachable branch can target them) and keeps
// the reachable blocks in their original order, which preserves every
// fallthrough adjacency: a fallthrough successor starts exactly where its
// predecessor ends, so no dropped block can sit between the two.
//
// Phi copies for one edge form a parallel copy — all sources are read before
// any destination is written — and are sequentialized with at most one
// scratch slot (cycles are broken one at a time, and a broken cycle fully
// drains before the next can be stuck, so the scratch is free again).
//
// A phi argument can be an undef value (the slot was uninitialized along that
// edge). No copy is emitted for it: the phi's fresh slot is then itself
// uninitialized on that path, and the interpreter materializes the same zero
// value the original body would have read. (A program could in principle
// observe the difference between a *stale* slot and a zero through an
// undef-edge re-entry, but the validator's may-init check plus MJ's
// structured lowering keep reads on dynamically-taken undef paths
// unreachable, and the round-trip tests run the full workload suite to back
// that up.)

// Destruct rewrites f.M's body out of SSA: f.M.Code, NumLocals and
// LocalNames are replaced. The caller owns re-running Program.Reindex and
// ir.Validate (Destruct operates on one method; the program-wide instruction
// index is rebuilt once after all methods are rewritten). The Func must not
// be used afterwards — its PCs no longer match the body.
func Destruct(f *Func) {
	m, cfg := f.M, f.CFG

	// Slot assignment: parameters keep their slots; every other value gets a
	// fresh slot. Undef values get none (never written, never read — see the
	// package comment — so no slot is needed; defensively, a fresh slot is
	// assigned lazily if one ever surfaces at a real operand).
	slotOf := make([]int, len(f.Vals))
	names := make([]string, 0, len(f.Vals))
	for s := 0; s < m.Params; s++ {
		names = append(names, m.LocalName(s))
	}
	next := m.Params
	for v := range f.Vals {
		switch f.Vals[v].Kind {
		case VParam:
			slotOf[v] = f.Vals[v].Slot
		case VUndef:
			slotOf[v] = -1
		default:
			slotOf[v] = next
			names = append(names, f.Name(ValID(v)))
			next++
		}
	}
	scratch := -1
	getScratch := func() int {
		if scratch < 0 {
			scratch = next
			names = append(names, "ssa.scratch")
			next++
		}
		return scratch
	}
	operandSlot := func(v ValID) int {
		if slotOf[v] < 0 {
			slotOf[v] = next
			names = append(names, f.Name(v))
			next++
		}
		return slotOf[v]
	}

	edgeArg := edgeArgIndex(cfg)
	// copiesFor collects the parallel copy for the k-th successor edge of b.
	copiesFor := func(b, k int) [][2]int {
		var cp [][2]int
		s := cfg.Blocks[b].Succs[k]
		for _, pv := range f.Phis[s] {
			a := f.Vals[pv].Args[edgeArg[b][k]]
			if a == None || f.Vals[a].Kind == VUndef {
				continue
			}
			if dst, src := slotOf[pv], operandSlot(a); dst != src {
				cp = append(cp, [2]int{dst, src})
			}
		}
		return cp
	}

	var code []ir.Instr
	emitCopies := func(cp [][2]int, line int32) {
		for _, c := range sequentialize(cp, getScratch) {
			code = append(code, ir.Instr{Op: ir.OpMove, Dst: int32(c[0]), A: int32(c[1]), B: -1, C2: -1, Line: line})
		}
	}

	// splitEdge records a pending split block for a branch-taken edge that
	// needs copies: the copies plus a Goto to the original successor.
	type splitEdge struct {
		copies  [][2]int
		toBlock int
		line    int32
	}
	var splits []splitEdge
	// patches[i] redirects code[i].Target to a block start (toSplit < 0) or a
	// split block, resolved once the layout is final.
	type patch struct {
		idx     int
		toBlock int
		toSplit int
	}
	var patches []patch

	newStart := make([]int, cfg.NumBlocks())
	for b := range newStart {
		newStart[b] = -1
	}
	for b := 0; b < cfg.NumBlocks(); b++ {
		if !cfg.Reachable(b) {
			continue
		}
		blk := &cfg.Blocks[b]
		if b == 0 {
			// The virtual function-entry edge of entry phis: copy the
			// parameter values in. Sources are parameter slots, destinations
			// fresh, so the parallel copy is trivially acyclic. These copies
			// run once at function entry and sit *before* newStart[0]: a
			// branch back to the entry block (it is a loop header then) must
			// not re-execute them, or the phi would be clobbered with the
			// original parameter value on every iteration.
			var cp [][2]int
			for _, pv := range f.Phis[0] {
				args := f.Vals[pv].Args
				a := args[len(args)-1]
				if a == None || f.Vals[a].Kind == VUndef {
					continue
				}
				cp = append(cp, [2]int{slotOf[pv], operandSlot(a)})
			}
			emitCopies(cp, m.Code[blk.Start].Line)
		}
		newStart[b] = len(code)
		for pc := blk.Start; pc < blk.End; pc++ {
			in := m.Code[pc] // copy
			ops := make([]int, 0, len(f.Operands[pc]))
			for _, v := range f.Operands[pc] {
				ops = append(ops, operandSlot(v))
			}
			setUses(&in, ops)
			if d := f.DefOf[pc]; d != None {
				in.Dst = int32(slotOf[d])
			}
			last := pc == blk.Last()
			switch {
			case last && in.Op == ir.OpGoto:
				emitCopies(copiesFor(b, 0), in.Line)
				patches = append(patches, patch{idx: len(code), toBlock: blk.Succs[0], toSplit: -1})
				code = append(code, in)
			case last && in.Op == ir.OpIf:
				// Taken edge: copies can't sit in this block (the fallthrough
				// path must not see them), so they go to a split block.
				if cp := copiesFor(b, 0); len(cp) > 0 {
					patches = append(patches, patch{idx: len(code), toSplit: len(splits)})
					splits = append(splits, splitEdge{copies: cp, toBlock: blk.Succs[0], line: in.Line})
				} else {
					patches = append(patches, patch{idx: len(code), toBlock: blk.Succs[0], toSplit: -1})
				}
				code = append(code, in)
				// Fallthrough edge: the taken path has jumped away, so its
				// copies sit inline after the predicate.
				if len(blk.Succs) > 1 {
					emitCopies(copiesFor(b, 1), in.Line)
				}
			default:
				code = append(code, in)
				if last && in.Op != ir.OpReturn && len(blk.Succs) == 1 {
					// Plain fallthrough into the next block.
					emitCopies(copiesFor(b, 0), in.Line)
				}
			}
		}
	}
	// Split blocks go after the body. The last reachable block necessarily
	// ends in a Return or Goto — a validated body has no falls-off block, and
	// a trailing fallthrough or If would make its physical successor
	// reachable — so control cannot run into the splits.
	splitStart := make([]int, len(splits))
	for i, sp := range splits {
		splitStart[i] = len(code)
		emitCopies(sp.copies, sp.line)
		patches = append(patches, patch{idx: len(code), toBlock: sp.toBlock, toSplit: -1})
		code = append(code, ir.Instr{Op: ir.OpGoto, Dst: -1, A: -1, B: -1, C2: -1, Line: sp.line})
	}
	for _, p := range patches {
		if p.toSplit >= 0 {
			code[p.idx].Target = int32(splitStart[p.toSplit])
		} else {
			if newStart[p.toBlock] < 0 {
				panic(fmt.Sprintf("ssa: %s: branch into unreachable block %d", m.QualifiedName(), p.toBlock))
			}
			code[p.idx].Target = int32(newStart[p.toBlock])
		}
	}

	m.Code = code
	m.NumLocals = next
	m.LocalNames = names
}

// DestructProgram rewrites every method of prog out of SSA (building SSA
// per method first), reindexes and validates. It is the whole-program
// round trip the tests run.
func DestructProgram(prog *ir.Program) error {
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			Destruct(Build(m, nil))
		}
	}
	prog.Reindex()
	return ir.Validate(prog)
}

// sequentialize orders a parallel copy (distinct destinations) so that no
// source is clobbered before it is read, breaking cycles with a scratch slot
// obtained from tmp. Self-copies are dropped.
func sequentialize(copies [][2]int, tmp func() int) [][2]int {
	pending := append([][2]int(nil), copies...)
	var out [][2]int
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			dst := pending[i][0]
			busy := false
			for j := range pending {
				if j != i && pending[j][1] == dst {
					busy = true
					break
				}
			}
			if busy {
				continue
			}
			if pending[i][1] != dst {
				out = append(out, pending[i])
			}
			pending = append(pending[:i], pending[i+1:]...)
			i--
			progress = true
		}
		if !progress {
			// Every pending destination is also a pending source: the rest is
			// a union of disjoint cycles. Divert one source to the scratch
			// slot; the cycle it belongs to is then drainable.
			t := tmp()
			src := pending[0][1]
			out = append(out, [2]int{t, src})
			for j := range pending {
				if pending[j][1] == src {
					pending[j][1] = t
				}
			}
		}
	}
	return out
}

// setUses writes the operand slots back into in, in the exact order
// Instr.Uses reports them.
func setUses(in *ir.Instr, ops []int) {
	i := 0
	next := func() int32 {
		s := ops[i]
		i++
		return int32(s)
	}
	switch in.Op {
	case ir.OpMove, ir.OpNeg, ir.OpNot, ir.OpNewArray, ir.OpInstanceOf:
		in.A = next()
	case ir.OpBin, ir.OpIf, ir.OpALoad:
		in.A = next()
		in.B = next()
	case ir.OpLoadField, ir.OpArrayLen:
		in.A = next()
	case ir.OpStoreField:
		in.A = next()
		in.B = next()
	case ir.OpStoreStatic:
		in.A = next()
	case ir.OpAStore:
		in.A = next()
		in.B = next()
		in.C2 = next()
	case ir.OpCall, ir.OpNative:
		args := in.Args() // a window of the method's slab, renamed in place
		for k := range args {
			args[k] = next()
		}
	case ir.OpReturn:
		if in.HasA {
			in.A = next()
		}
	}
	if i != len(ops) {
		panic(fmt.Sprintf("ssa: operand count mismatch rewriting %s: used %d of %d", in.Op, i, len(ops)))
	}
}
