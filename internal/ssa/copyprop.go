package ssa

import "lowutil/internal/ir"

// Copy propagation and dominance-based value numbering. Both are analyses,
// not transformations: the vet checks use copy resolution to see through
// move chains when chasing a value's real uses, and the `lowutil ssa` dump
// annotates redundant computations found by value numbering.

// CopyProp maps every value to its representative after copy propagation:
// OpMove definitions forward to their source, and a phi whose non-undef
// arguments all resolve to one value (or to the phi itself) forwards to that
// value. Fixpointed, so chains and phi cycles of copies collapse.
func CopyProp(f *Func) []ValID {
	rep := make([]ValID, len(f.Vals))
	for v := range rep {
		rep[v] = ValID(v)
	}
	find := func(v ValID) ValID {
		for rep[v] != v {
			rep[v] = rep[rep[v]] // path halving
			v = rep[v]
		}
		return v
	}
	for changed := true; changed; {
		changed = false
		for v := range f.Vals {
			val := &f.Vals[v]
			var to ValID = None
			switch val.Kind {
			case VInstr:
				if f.M.Code[val.PC].Op == ir.OpMove {
					to = f.Operands[val.PC][0]
				}
			case VPhi:
				// A phi of copies: every argument resolves to one value or
				// back to the phi itself.
				to = ValID(v)
				uniq := None
				for _, a := range val.Args {
					if a == None {
						continue
					}
					r := find(a)
					if r == find(ValID(v)) {
						continue
					}
					if f.Vals[r].Kind == VUndef {
						continue // the undef edge contributes no value
					}
					if uniq == None {
						uniq = r
					} else if uniq != r {
						uniq = None
						to = None
						break
					}
				}
				if to != None {
					if uniq == None {
						to = None // phi of only itself/undefs: leave alone
					} else {
						to = uniq
					}
				}
			}
			if to == None {
				continue
			}
			r, rv := find(to), find(ValID(v))
			if r != rv {
				rep[rv] = r
				changed = true
			}
		}
	}
	out := make([]ValID, len(f.Vals))
	for v := range out {
		out[v] = find(ValID(v))
	}
	return out
}

// vnKey identifies a pure computation for value numbering.
type vnKey struct {
	op       ir.Op
	sub      uint8 // BinOp / Cmp discriminator
	imm      int64
	isNull   bool
	a, b     int32 // value numbers of the (resolved) operands
	identity int   // field/static/class identity for typed ops
}

// ValueNumbers performs dominance-based value numbering over f: pure
// computations with identical opcodes and congruent operands get the same
// number when the earlier one dominates the later. The result maps each
// value to its representative value (the first dominating congruent
// computation), and is the identity for values that are not redundant.
func ValueNumbers(f *Func, rep []ValID) []ValID {
	if rep == nil {
		rep = CopyProp(f)
	}
	out := make([]ValID, len(f.Vals))
	for v := range out {
		out[v] = ValID(v)
	}
	keyFor := func(pc int) (vnKey, bool) {
		in := &f.M.Code[pc]
		k := vnKey{op: in.Op, a: -1, b: -1}
		opnum := func(i int) int32 { return int32(rep[f.Operands[pc][i]]) }
		switch in.Op {
		case ir.OpConst:
			k.imm, k.isNull = in.Imm, in.IsNull
		case ir.OpNeg, ir.OpNot:
			k.a = opnum(0)
		case ir.OpBin:
			k.sub = uint8(in.Bin())
			k.a, k.b = opnum(0), opnum(1)
			if commutative(in.Bin()) && k.a > k.b {
				k.a, k.b = k.b, k.a
			}
		case ir.OpInstanceOf:
			k.a = opnum(0)
			k.identity = in.Class().ID
		default:
			// Moves are handled by copy propagation; loads, allocations,
			// calls and natives are not pure.
			return k, false
		}
		return k, true
	}
	// One table for the whole walk of the dominator tree, plus an undo log.
	// A key is inserted only when no dominating computation holds it, so
	// leaving a block's subtree deletes exactly the keys the block inserted
	// and restores the table its dominators see.
	tbl := make(map[vnKey]ValID)
	var undo []vnKey
	type frame struct{ b, kids, mark int }
	visit := func(b int) frame {
		fr := frame{b: b, mark: len(undo)}
		blk := &f.CFG.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			v := f.DefOf[pc]
			if v == None {
				continue
			}
			k, ok := keyFor(pc)
			if !ok {
				continue
			}
			if w, ok := tbl[k]; ok {
				out[v] = w
				continue
			}
			tbl[k] = v
			undo = append(undo, k)
		}
		return fr
	}
	stack := []frame{visit(0)}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		kids := f.Dom.Children[fr.b]
		if fr.kids < len(kids) {
			b := kids[fr.kids]
			fr.kids++
			stack = append(stack, visit(b))
			continue
		}
		for _, k := range undo[fr.mark:] {
			delete(tbl, k)
		}
		undo = undo[:fr.mark]
		stack = stack[:len(stack)-1]
	}
	return out
}

func commutative(op ir.BinOp) bool {
	switch op {
	case ir.Add, ir.Mul, ir.And, ir.Or, ir.Xor:
		return true
	}
	return false
}
