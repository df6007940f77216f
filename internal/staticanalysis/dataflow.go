// Package staticanalysis implements a static dataflow framework over the
// slot-based IR: per-method CFGs, dominators and reaching definitions (all
// built by internal/ir, which shares them with internal/interproc), and a
// generic gen/kill worklist engine. On top of the framework sits Vet, a
// zero-execution diagnostics suite (dead stores, write-only fields, unused
// allocations, unreachable code, possibly-uninitialized reads) surfaced as
// `lowutil vet`.
//
// The paper's pipeline is purely dynamic — every executed instruction is
// traced into Gcost. The framework here is the static layer that answers
// questions without running the program.
package staticanalysis

import (
	"math/bits"

	"lowutil/internal/ir"
)

// BitSet is a fixed-capacity bit vector, the lattice element of every
// dataflow instance in this package.
type BitSet []uint64

// NewBitSet returns a BitSet able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (b BitSet) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Clear clears bit i.
func (b BitSet) Clear(i int) { b[i/64] &^= 1 << (i % 64) }

// Has reports bit i.
func (b BitSet) Has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// CopyFrom overwrites b with src.
func (b BitSet) CopyFrom(src BitSet) { copy(b, src) }

// UnionWith ors src into b.
func (b BitSet) UnionWith(src BitSet) {
	for w := range b {
		b[w] |= src[w]
	}
}

// IntersectWith ands src into b.
func (b BitSet) IntersectWith(src BitSet) {
	for w := range b {
		b[w] &= src[w]
	}
}

// AndNot removes src's bits from b.
func (b BitSet) AndNot(src BitSet) {
	for w := range b {
		b[w] &^= src[w]
	}
}

// Equal reports whether b and o hold the same bits.
func (b BitSet) Equal(o BitSet) bool {
	for w := range b {
		if b[w] != o[w] {
			return false
		}
	}
	return true
}

// Fill sets every bit in [0, n).
func (b BitSet) Fill(n int) {
	for i := 0; i < n/64; i++ {
		b[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		b[n/64] |= (1 << r) - 1
	}
}

// Range calls f for every set bit, ascending.
func (b BitSet) Range(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			f(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Problem is a gen/kill dataflow problem over a CFG. The engine handles both
// directions and both meets; blocks unreachable from the entry are left at
// the bottom element (empty for union problems, full for intersection).
type Problem struct {
	CFG *ir.CFG
	// Bits is the size of the bit domain.
	Bits int
	// Backward selects backward flow (liveness-style); default is forward.
	Backward bool
	// Intersect selects intersection as the meet (must-style); default is
	// union (may-style).
	Intersect bool
	// Gen and Kill are per-block transfer sets: out = gen ∪ (in ∖ kill) for
	// forward problems, in = gen ∪ (out ∖ kill) for backward ones.
	Gen, Kill []BitSet
	// Boundary seeds the entry (forward) or every exit block (backward);
	// nil means empty.
	Boundary BitSet
}

// Solution holds the fixpoint: In[b] and Out[b] are the dataflow facts at
// block b's entry and exit in *execution* order (even for backward problems).
type Solution struct {
	In, Out []BitSet
}

// Solve runs the worklist iteration to a fixpoint. Iteration order is
// reverse postorder for forward problems and postorder for backward ones, so
// loop-free methods converge in one pass.
func Solve(p *Problem) *Solution {
	cfg := p.CFG
	nb := cfg.NumBlocks()
	sol := &Solution{In: make([]BitSet, nb), Out: make([]BitSet, nb)}
	for b := 0; b < nb; b++ {
		sol.In[b] = NewBitSet(p.Bits)
		sol.Out[b] = NewBitSet(p.Bits)
	}
	if nb == 0 {
		return sol
	}

	order := make([]int, len(cfg.RPO))
	copy(order, cfg.RPO)
	if p.Backward {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	if p.Intersect {
		// Start reachable blocks at top (full) so the meet can only shrink.
		for _, b := range order {
			sol.In[b].Fill(p.Bits)
			sol.Out[b].Fill(p.Bits)
		}
	}

	meetInto := func(dst BitSet, blocks []int, facts []BitSet) {
		first := true
		for _, nb := range blocks {
			if !cfg.Reachable(nb) {
				continue
			}
			if first {
				dst.CopyFrom(facts[nb])
				first = false
			} else if p.Intersect {
				dst.IntersectWith(facts[nb])
			} else {
				dst.UnionWith(facts[nb])
			}
		}
		if first {
			// No reachable neighbors: boundary block.
			for w := range dst {
				dst[w] = 0
			}
			if p.Boundary != nil {
				dst.UnionWith(p.Boundary)
			}
		}
	}

	tmp := NewBitSet(p.Bits)
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			blk := &cfg.Blocks[b]
			if p.Backward {
				meetInto(sol.Out[b], blk.Succs, sol.In)
				tmp.CopyFrom(sol.Out[b])
				tmp.AndNot(p.Kill[b])
				tmp.UnionWith(p.Gen[b])
				if !tmp.Equal(sol.In[b]) {
					sol.In[b].CopyFrom(tmp)
					changed = true
				}
			} else {
				if b == 0 {
					// The entry meets its predecessors (loops back to the
					// entry) plus the boundary.
					meetInto(sol.In[b], blk.Preds, sol.Out)
					if p.Boundary != nil {
						sol.In[b].UnionWith(p.Boundary)
					}
				} else {
					meetInto(sol.In[b], blk.Preds, sol.Out)
				}
				tmp.CopyFrom(sol.In[b])
				tmp.AndNot(p.Kill[b])
				tmp.UnionWith(p.Gen[b])
				if !tmp.Equal(sol.Out[b]) {
					sol.Out[b].CopyFrom(tmp)
					changed = true
				}
			}
		}
	}
	return sol
}

// Dominators computes the immediate dominator of every reachable block.
// idom[entry] == entry; idom[b] == -1 for unreachable blocks. The
// implementation lives in internal/ir (the SSA layer shares it); this
// wrapper keeps the historical staticanalysis entry point.
func Dominators(cfg *ir.CFG) []int { return ir.Dominators(cfg) }

// Dominates reports whether block a dominates block b under idom (as
// returned by Dominators).
func Dominates(idom []int, a, b int) bool {
	if a == 0 {
		return idom[b] != -1
	}
	for b != -1 {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = idom[b]
	}
	return false
}
