package ir

// This file hosts the dominator machinery the SSA layer is built on: the
// immediate dominators, the dominator tree with its dominance frontiers,
// and constant-time dominance queries from the tree's pre- and postorder
// numbers.

// Dominators computes the immediate dominator of every reachable block with
// the Cooper–Harvey–Kennedy iterative algorithm over the reverse postorder.
// idom[entry] == entry; idom[b] == -1 for unreachable blocks.
func Dominators(cfg *CFG) []int {
	nb := cfg.NumBlocks()
	idom := make([]int, nb)
	for i := range idom {
		idom[i] = -1
	}
	if nb == 0 {
		return idom
	}
	idom[0] = 0

	intersect := func(a, b int) int {
		for a != b {
			for cfg.RPOIndex(a) > cfg.RPOIndex(b) {
				a = idom[a]
			}
			for cfg.RPOIndex(b) > cfg.RPOIndex(a) {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range cfg.RPO {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range cfg.Blocks[b].Preds {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// DomTree is the dominator tree of a CFG plus the dominance frontiers — the
// inputs to pruned-SSA phi placement.
type DomTree struct {
	CFG *CFG
	// Idom[b] is the immediate dominator of block b. Idom[entry] == entry;
	// -1 for blocks unreachable from the entry.
	Idom []int
	// Children[b] lists the blocks whose immediate dominator is b (the entry
	// excluded from its own children), in ascending block order.
	Children [][]int
	// Frontier[b] is the dominance frontier of block b — the blocks where
	// b's dominance stops, i.e. the join points needing phis for defs in b —
	// in ascending block order, deduplicated.
	Frontier [][]int

	// pre[b] and post[b] number block b in a preorder and a postorder walk
	// of the tree (-1 for unreachable blocks): a dominates b iff a's
	// subtree interval [pre, post] encloses b's.
	pre, post []int32
}

// NewDomTree computes the dominator tree and dominance frontiers of cfg.
func NewDomTree(cfg *CFG) *DomTree {
	d := &DomTree{CFG: cfg, Idom: Dominators(cfg)}
	nb := cfg.NumBlocks()
	d.Children = make([][]int, nb)
	for b := 0; b < nb; b++ {
		if b == 0 || d.Idom[b] == -1 {
			continue
		}
		d.Children[d.Idom[b]] = append(d.Children[d.Idom[b]], b)
	}
	d.number()
	// Dominance frontiers (Cooper–Harvey–Kennedy): for every join block,
	// walk each predecessor's idom chain up to the join's idom.
	d.Frontier = make([][]int, nb)
	inFrontier := make([]int, nb) // last join added per runner, -1 sentinel
	for i := range inFrontier {
		inFrontier[i] = -1
	}
	for _, b := range cfg.RPO {
		preds := cfg.Blocks[b].Preds
		// The entry is a join point as soon as it has any predecessor: the
		// implicit function-entry edge (parameters, undefs) always joins it.
		if len(preds) < 2 && !(b == 0 && len(preds) >= 1) {
			continue
		}
		for _, p := range preds {
			if d.Idom[p] == -1 {
				continue
			}
			for runner := p; runner != d.Idom[b]; runner = d.Idom[runner] {
				if inFrontier[runner] != b {
					inFrontier[runner] = b
					d.Frontier[runner] = append(d.Frontier[runner], b)
				}
			}
		}
	}
	return d
}

// number walks the tree depth-first from the entry and records each
// block's preorder and postorder numbers.
func (d *DomTree) number() {
	nb := len(d.Idom)
	d.pre, d.post = make([]int32, nb), make([]int32, nb)
	for b := range d.pre {
		d.pre[b], d.post[b] = -1, -1
	}
	if nb == 0 {
		return
	}
	type frame struct{ b, child int }
	var pre, post int32
	d.pre[0] = pre
	pre++
	stack := []frame{{b: 0}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if kids := d.Children[fr.b]; fr.child < len(kids) {
			c := kids[fr.child]
			fr.child++
			d.pre[c] = pre
			pre++
			stack = append(stack, frame{b: c})
			continue
		}
		d.post[fr.b] = post
		post++
		stack = stack[:len(stack)-1]
	}
}

// Dominates reports whether block a dominates block b (reflexively), in
// constant time: a's subtree holds b exactly when a comes no later than b
// in the preorder and no earlier in the postorder. An unreachable block
// dominates nothing and is dominated by nothing.
func (d *DomTree) Dominates(a, b int) bool {
	if d.pre[a] < 0 || d.pre[b] < 0 {
		return false
	}
	return d.pre[a] <= d.pre[b] && d.post[b] <= d.post[a]
}
