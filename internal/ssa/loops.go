package ssa

import (
	"sort"

	"lowutil/internal/ir"
)

// Natural-loop forest from back-edges, with trip-count bounds inferred from
// SCCP constants. A back-edge is an edge u→h where h dominates u; all
// back-edges sharing a header form one loop whose body is the union of the
// backward-reachable blocks. Loops nest by block containment; each loop's
// trip count is inferred, where possible, from the canonical MJ loop shape
// (a header predicate over an induction phi with constant init, bound and
// step), and feeds the per-instruction static frequency weights.

// Loop is one natural loop.
type Loop struct {
	// Header is the loop-header block (the target of the back-edges).
	Header int
	// Blocks lists the member blocks, ascending (header included).
	Blocks []int
	// Parent indexes the innermost enclosing loop in Forest.Loops, or -1.
	Parent int
	// Depth is the nesting depth, 1 for an outermost loop.
	Depth int
	// Trip is the exact number of body executions when the induction
	// pattern matched with constant bounds, else -1 (unknown).
	Trip int64
}

// Forest is the natural-loop forest of one method.
type Forest struct {
	Loops []Loop
	// LoopOf[b] indexes the innermost loop containing block b, or -1.
	LoopOf []int
}

// Depth returns the loop-nesting depth of block b (0 outside any loop).
func (ft *Forest) Depth(b int) int {
	if ft.LoopOf[b] < 0 {
		return 0
	}
	return ft.Loops[ft.LoopOf[b]].Depth
}

// BuildForest finds the natural loops of f and, given the SCCP fixpoint,
// infers constant trip counts. sc may be nil (no trip inference then).
func BuildForest(f *Func, sc *SCCP) *Forest {
	cfg, dom := f.CFG, f.Dom
	nb := cfg.NumBlocks()
	ft := &Forest{LoopOf: make([]int, nb)}
	for i := range ft.LoopOf {
		ft.LoopOf[i] = -1
	}

	// Collect back-edge latches per header, headers in RPO so outer loops
	// come first for same-header merging.
	latches := make(map[int][]int)
	var headers []int
	for _, b := range cfg.RPO {
		for _, s := range cfg.Blocks[b].Succs {
			if cfg.Reachable(s) && dom.Dominates(s, b) {
				if len(latches[s]) == 0 {
					headers = append(headers, s)
				}
				latches[s] = append(latches[s], b)
			}
		}
	}
	sort.Ints(headers)

	inBody := make([]int, nb)
	for i := range inBody {
		inBody[i] = -1
	}
	for _, h := range headers {
		li := len(ft.Loops)
		body := []int{h}
		inBody[h] = li
		work := make([]int, 0, len(latches[h]))
		for _, l := range latches[h] {
			if inBody[l] != li {
				inBody[l] = li
				body = append(body, l)
				work = append(work, l)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range cfg.Blocks[b].Preds {
				if cfg.Reachable(p) && inBody[p] != li && p != h {
					inBody[p] = li
					body = append(body, p)
					work = append(work, p)
				}
			}
		}
		sort.Ints(body)
		ft.Loops = append(ft.Loops, Loop{Header: h, Blocks: body, Parent: -1, Trip: -1})
	}

	// Nesting. Natural loops with distinct headers are disjoint or nested,
	// and an enclosing loop's header strictly dominates the enclosed one's,
	// so it comes first in reverse postorder. Visiting the loops in their
	// headers' RPO, LoopOf[b] is always the innermost loop visited so far
	// that contains b: a loop's parent is its header's LoopOf just before the
	// loop claims its own blocks. The work is the total size of the bodies.
	for _, h := range cfg.RPO {
		if len(latches[h]) == 0 {
			continue
		}
		i := sort.SearchInts(headers, h)
		lp := &ft.Loops[i]
		lp.Parent, lp.Depth = ft.LoopOf[h], 1
		if lp.Parent >= 0 {
			lp.Depth = ft.Loops[lp.Parent].Depth + 1
		}
		for _, b := range lp.Blocks {
			ft.LoopOf[b] = i
		}
	}

	if sc != nil {
		rep := CopyProp(f)
		for i := range ft.Loops {
			// Restamp the body: the collection above left i only on blocks
			// of loop i, so inBody[b] == i now holds exactly for them.
			for _, b := range ft.Loops[i].Blocks {
				inBody[b] = i
			}
			ft.Loops[i].Trip = inferTrip(f, sc, rep, &ft.Loops[i], func(b int) bool { return inBody[b] == i })
		}
	}
	return ft
}

// inferTrip matches the canonical counted-loop shape and returns the exact
// number of body executions, or 0 when the shape or the constants are
// absent. The MJ front end lowers `while (i < n) { ...; i = i + s; }` to a
// header block that evaluates the exit test `if i >= n goto end` (the
// negated continue condition, taken edge exiting), so the matcher looks for
// any in-loop conditional with exactly one exiting edge whose operands are
// a header induction phi and an SCCP constant.
func inferTrip(f *Func, sc *SCCP, rep []ValID, lp *Loop, inBody func(int) bool) int64 {
	cfg := f.CFG
	for _, b := range lp.Blocks {
		blk := &cfg.Blocks[b]
		last := blk.Last()
		in := &f.M.Code[last]
		if in.Op != ir.OpIf || len(blk.Succs) != 2 {
			continue
		}
		exitIdx := -1
		if !inBody(blk.Succs[0]) && inBody(blk.Succs[1]) {
			exitIdx = 0
		} else if inBody(blk.Succs[0]) && !inBody(blk.Succs[1]) {
			exitIdx = 1
		} else {
			continue
		}
		ops := f.Operands[last]
		if len(ops) != 2 {
			continue
		}
		// One side: induction phi at the header; other side: constant bound.
		for side := 0; side < 2; side++ {
			iv := rep[ops[side]]
			bound, boundConst := sc.ConstOf(ops[1-side])
			if !boundConst || bound.IsNull {
				continue
			}
			init, step, ok := matchInduction(f, sc, rep, lp, inBody, iv)
			if !ok {
				continue
			}
			cmp := in.Cmp
			if side == 1 {
				cmp = flipCmp(cmp)
			}
			// cmp now relates iv (left) to bound (right). The loop exits
			// when the *taken* edge leaves the body; if the fallthrough
			// exits, the exit condition is the negation.
			exitCmp := cmp
			if exitIdx == 1 {
				exitCmp = negateCmp(cmp)
			}
			if t, ok := tripCount(init.I, bound.I, step, exitCmp); ok {
				return t
			}
		}
	}
	return -1
}

// matchInduction recognizes iv as a header phi with a constant init argument
// from outside the loop and a self-increment `iv + step` (constant step)
// from inside it. inBody tests membership in lp.
func matchInduction(f *Func, sc *SCCP, rep []ValID, lp *Loop, inBody func(int) bool, iv ValID) (init Const, step int64, ok bool) {
	v := &f.Vals[iv]
	if v.Kind != VPhi || v.Block != lp.Header {
		return Const{}, 0, false
	}
	preds := f.CFG.Blocks[lp.Header].Preds
	haveInit, haveStep := false, false
	for j, a := range v.Args {
		if a == None {
			continue
		}
		fromInside := j < len(preds) && inBody(preds[j])
		if !fromInside {
			c, isC := sc.ConstOf(a)
			if !isC || c.IsNull {
				return Const{}, 0, false
			}
			if haveInit && c != init {
				return Const{}, 0, false
			}
			init, haveInit = c, true
			continue
		}
		// Inside edge: a = iv ± const, possibly through copies.
		r := rep[a]
		av := &f.Vals[r]
		if av.Kind != VInstr {
			return Const{}, 0, false
		}
		in := &f.M.Code[av.PC]
		if in.Op != ir.OpBin || (in.Bin != ir.Add && in.Bin != ir.Sub) {
			return Const{}, 0, false
		}
		x, y := rep[f.Operands[av.PC][0]], rep[f.Operands[av.PC][1]]
		var s int64
		switch {
		case x == iv:
			c, isC := sc.ConstOf(y)
			if !isC || c.IsNull {
				return Const{}, 0, false
			}
			s = c.I
			if in.Bin == ir.Sub {
				s = -s
			}
		case y == iv && in.Bin == ir.Add:
			c, isC := sc.ConstOf(x)
			if !isC || c.IsNull {
				return Const{}, 0, false
			}
			s = c.I
		default:
			return Const{}, 0, false
		}
		if haveStep && s != step {
			return Const{}, 0, false
		}
		step, haveStep = s, true
	}
	return init, step, haveInit && haveStep && step != 0
}

// tripCount solves the number of header evaluations that pass before the
// exit condition `i exitCmp bound` first holds, for i starting at init and
// advancing by step — i.e. the number of body executions.
func tripCount(init, bound, step int64, exitCmp ir.Cmp) (int64, bool) {
	ceilDiv := func(a, b int64) int64 {
		q := a / b
		if a%b != 0 {
			q++
		}
		return q
	}
	switch exitCmp {
	case ir.Ge: // exit when i >= bound; continue while i < bound
		if step <= 0 {
			return 0, false
		}
		if init >= bound {
			return 0, true
		}
		return ceilDiv(bound-init, step), true
	case ir.Gt: // exit when i > bound; continue while i <= bound
		if step <= 0 {
			return 0, false
		}
		if init > bound {
			return 0, true
		}
		return ceilDiv(bound-init+1, step), true
	case ir.Le: // exit when i <= bound; continue while i > bound
		if step >= 0 {
			return 0, false
		}
		if init <= bound {
			return 0, true
		}
		return ceilDiv(init-bound, -step), true
	case ir.Lt: // exit when i < bound; continue while i >= bound
		if step >= 0 {
			return 0, false
		}
		if init < bound {
			return 0, true
		}
		return ceilDiv(init-bound+1, -step), true
	case ir.Eq: // exit when i == bound
		if step == 0 {
			return 0, false
		}
		d := bound - init
		if d%step != 0 || d/step < 0 {
			return 0, false // never hits the bound: not a counted loop
		}
		return d / step, true
	case ir.Ne: // exit when i != bound: exits immediately unless init==bound
		return 0, false
	}
	return 0, false
}

func flipCmp(c ir.Cmp) ir.Cmp {
	switch c {
	case ir.Lt:
		return ir.Gt
	case ir.Le:
		return ir.Ge
	case ir.Gt:
		return ir.Lt
	case ir.Ge:
		return ir.Le
	}
	return c // Eq, Ne symmetric
}

func negateCmp(c ir.Cmp) ir.Cmp {
	switch c {
	case ir.Eq:
		return ir.Ne
	case ir.Ne:
		return ir.Eq
	case ir.Lt:
		return ir.Ge
	case ir.Le:
		return ir.Gt
	case ir.Gt:
		return ir.Le
	case ir.Ge:
		return ir.Lt
	}
	return c
}
