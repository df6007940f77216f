package clients

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/shadow"
)

// Origin identifies where a value was last loaded from: an (allocation site,
// field) pair, or Bottom for values produced by computation, constants, or
// fresh allocations.
type Origin struct {
	Site  int // allocation site; -1 for Bottom
	Field int // field ID; depgraph.ElemField for array elements
}

// Bottom is the ⊥ origin.
var Bottom = Origin{Site: -1}

// IsBottom reports whether o is ⊥.
func (o Origin) IsBottom() bool { return o.Site < 0 }

func (o Origin) String() string {
	if o.IsBottom() {
		return "⊥"
	}
	if o.Field == depgraph.ElemField {
		return fmt.Sprintf("O%d.ELM", o.Site)
	}
	return fmt.Sprintf("O%d.f%d", o.Site, o.Field)
}

// CopyProfiler implements the extended copy profiling client of Figure 2(c):
// abstract dynamic slicing with domain D = O × P ∪ {⊥}. Each stack and heap
// location carries the object field its value originated from; copy
// instructions become nodes annotated with that origin, and dependence edges
// link consecutive copies — so a backward walk from a field store recovers
// the whole copy chain including intermediate stack locations. It is a
// rule over the shadow tracer.
type CopyProfiler struct {
	*shadow.Tracer[copyCell]
	G *depgraph.Graph

	prog *ir.Program
	// chains aggregates completed heap-to-heap copies by source and
	// target origin.
	chains map[[2]Origin]*chainRec
	// TotalCopies counts executed copy instructions (Move + load/store).
	TotalCopies int64
}

// copyCell is the profiler's cell of a location: the origin of its value
// and the node of the last copy instruction that moved it.
type copyCell struct {
	origin Origin
	node   *depgraph.Node
}

// chainRec is one heap-to-heap copy relation: its dynamic count and the
// store nodes that completed it.
type chainRec struct {
	count  int64
	stores []*depgraph.Node
}

// NewCopyProfiler returns a copy profiler for prog.
func NewCopyProfiler(prog *ir.Program) *CopyProfiler {
	cp := &CopyProfiler{
		G:      depgraph.New(prog),
		prog:   prog,
		chains: make(map[[2]Origin]*chainRec),
	}
	cp.Tracer = shadow.New[copyCell](prog, cp)
	return cp
}

// encode maps an Origin to an abstract-domain integer. Field IDs are dense
// per program; ElemField (-1) gets its own slot per site.
func (cp *CopyProfiler) encode(o Origin) int {
	if o.IsBottom() {
		return 0
	}
	width := cp.prog.NumFields + 1 // +1 for ELM
	f := o.Field
	if f == depgraph.ElemField {
		f = cp.prog.NumFields
	}
	return 1 + o.Site*width + f
}

// recordChain counts a copy of a value from src into dst by the store
// node store.
func (cp *CopyProfiler) recordChain(src, dst Origin, store *depgraph.Node) {
	if src.IsBottom() {
		return
	}
	c := cp.chains[[2]Origin{src, dst}]
	if c == nil {
		c = &chainRec{}
		cp.chains[[2]Origin{src, dst}] = c
	}
	c.count++
	if !slices.Contains(c.stores, store) {
		c.stores = append(c.stores, store)
	}
}

// Cell is f_a. A move, load or store is a copy, whose node carries the
// origin of the value it moves. A load starts a chain: it takes the origin
// of the location it reads (statics have no allocation site, so a value
// loaded from one has origin ⊥). A move or store depends on the copy
// before it, and a field or element store completes a chain. A call passes
// its result's cell through, and every other instruction computes or
// allocates its value, whose origin is ⊥.
func (cp *CopyProfiler) Cell(in *ir.Instr, o *interp.Object, _ interp.Value, ops []copyCell) copyCell {
	switch in.Op {
	case ir.OpMove, ir.OpStoreStatic:
		return cp.copy(in, ops[0].origin, ops[0].node)
	case ir.OpStoreField, ir.OpAStore:
		c := cp.copy(in, ops[0].origin, ops[0].node)
		cp.recordChain(c.origin, location(in, o), c.node)
		return c
	case ir.OpLoadField, ir.OpALoad:
		return cp.copy(in, location(in, o), nil)
	case ir.OpLoadStatic:
		return cp.copy(in, Bottom, nil)
	case ir.OpCall:
		return ops[0]
	}
	return copyCell{origin: Bottom}
}

// copy counts a copy by in of a value with origin o and returns the cell
// it leaves: its node depends on prev, the copy before it.
func (cp *CopyProfiler) copy(in *ir.Instr, o Origin, prev *depgraph.Node) copyCell {
	cp.TotalCopies++
	n := cp.G.Touch(in, cp.encode(o))
	cp.G.AddDep(n, prev)
	return copyCell{origin: o, node: n}
}

// location is the heap location a field or element access of o touches.
func location(in *ir.Instr, o *interp.Object) Origin {
	if in.Op == ir.OpALoad || in.Op == ir.OpAStore {
		return Origin{Site: o.Site, Field: depgraph.ElemField}
	}
	return Origin{Site: o.Site, Field: in.Field.ID}
}

// Chain summarizes one heap-to-heap copy relation.
type Chain struct {
	Src, Dst Origin
	Count    int64
	// StackHops is the number of distinct intermediate stack nodes on
	// recorded paths between Src loads and Dst stores.
	StackHops int
}

func (c Chain) String() string {
	return fmt.Sprintf("%s -> %s ×%d (%d stack hops)", c.Src, c.Dst, c.Count, c.StackHops)
}

// Chains returns all recorded heap-to-heap copy chains, by descending count.
func (cp *CopyProfiler) Chains() []Chain {
	var out []Chain
	for k, c := range cp.chains {
		out = append(out, Chain{Src: k[0], Dst: k[1], Count: c.count, StackHops: stackHops(c.stores)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// stackHops walks backward from the store nodes that completed a chain,
// counting the distinct intermediate copy nodes until the load that
// introduced the chain's origin — the "intermediate stack locations" of
// the extended analysis.
func stackHops(stores []*depgraph.Node) int {
	count := 0
	seen := map[*depgraph.Node]bool{}
	for _, n := range stores {
		// Walk the same-origin chain backward.
		for cur := n; cur != nil && !seen[cur]; {
			seen[cur] = true
			if !cur.In.WritesHeap() && !cur.In.ReadsHeap() {
				count++
			}
			var prev *depgraph.Node
			cur.Deps(func(dep *depgraph.Node) {
				if prev == nil && dep.D == n.D {
					prev = dep
				}
			})
			cur = prev
		}
	}
	return count
}

// FormatChains renders the top k chains.
func FormatChains(chains []Chain, k int) string {
	var sb strings.Builder
	for i, c := range chains {
		if i >= k {
			break
		}
		fmt.Fprintf(&sb, "%s\n", c)
	}
	return sb.String()
}

var _ interp.Tracer = (*CopyProfiler)(nil)
