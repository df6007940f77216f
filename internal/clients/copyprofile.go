package clients

import (
	"fmt"
	"sort"
	"strings"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
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
// the whole copy chain including intermediate stack locations.
type CopyProfiler struct {
	interp.NopTracer
	G *depgraph.Graph

	prog     *ir.Program
	statics  []copyCell
	pendArgs []copyCell
	havePend bool
	pendRet  copyCell

	// chains aggregates completed heap-to-heap copies: source origin →
	// target origin → dynamic count.
	chains map[Origin]map[Origin]int64
	// TotalCopies counts executed copy instructions (Move + load/store).
	TotalCopies int64
}

// copyCell is the shadow of one location: the origin of its value and the
// node of the last copy instruction that moved it.
type copyCell struct {
	origin Origin
	node   *depgraph.Node
}

// NewCopyProfiler returns a copy profiler for prog.
func NewCopyProfiler(prog *ir.Program) *CopyProfiler {
	return &CopyProfiler{
		G:       depgraph.New(prog),
		prog:    prog,
		statics: make([]copyCell, len(prog.Statics)),
		chains:  make(map[Origin]map[Origin]int64),
	}
}

type copyFrameShadow struct{ cells []copyCell }
type copyObjShadow struct{ cells []copyCell }

func (cp *CopyProfiler) fshadow(fr *interp.Frame) *copyFrameShadow {
	if fs, ok := fr.Shadow.(*copyFrameShadow); ok {
		return fs
	}
	fs := &copyFrameShadow{cells: make([]copyCell, len(fr.Locals))}
	fr.Shadow = fs
	return fs
}

func (cp *CopyProfiler) oshadow(o *interp.Object) *copyObjShadow {
	if os, ok := o.Shadow.(*copyObjShadow); ok {
		return os
	}
	n := len(o.Fields)
	if o.IsArray() {
		n = len(o.Elems)
	}
	os := &copyObjShadow{cells: make([]copyCell, n)}
	o.Shadow = os
	return os
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

func (cp *CopyProfiler) recordChain(src, dst Origin) {
	if src.IsBottom() {
		return
	}
	m := cp.chains[src]
	if m == nil {
		m = make(map[Origin]int64, 2)
		cp.chains[src] = m
	}
	m[dst]++
}

// copyNode makes the node for a copy instruction instance with origin o and
// links it to the previous copy node.
func (cp *CopyProfiler) copyNode(in *ir.Instr, o Origin, prev *depgraph.Node) *depgraph.Node {
	n := cp.G.Touch(in, cp.encode(o))
	cp.G.AddDep(n, prev)
	return n
}

// reset marks in's destination as holding a computed or fresh value,
// whose origin is ⊥.
func (cp *CopyProfiler) reset(in *ir.Instr, fr *interp.Frame) {
	if in.Dst >= 0 {
		cp.fshadow(fr).cells[in.Dst] = copyCell{origin: Bottom}
	}
}

// copyFrom records a copy of src by in and returns the cell it leaves.
func (cp *CopyProfiler) copyFrom(in *ir.Instr, src copyCell) copyCell {
	cp.TotalCopies++
	return copyCell{origin: src.origin, node: cp.copyNode(in, src.origin, src.node)}
}

// load records a heap load by in from origin o into its destination.
func (cp *CopyProfiler) load(in *ir.Instr, fr *interp.Frame, o Origin) {
	cp.TotalCopies++
	cp.fshadow(fr).cells[in.Dst] = copyCell{origin: o, node: cp.copyNode(in, o, nil)}
}

// store records a heap store by in of local slot s into o's field or
// element i, the location dst.
func (cp *CopyProfiler) store(in *ir.Instr, fr *interp.Frame, s int, o *interp.Object, i int, dst Origin) {
	c := cp.copyFrom(in, cp.fshadow(fr).cells[s])
	cp.recordChain(c.origin, dst)
	if os := cp.oshadow(o); i < len(os.cells) {
		os.cells[i] = c
	}
}

// The hooks of instructions that compute or allocate their value.
func (cp *CopyProfiler) Const(in *ir.Instr, fr *interp.Frame)  { cp.reset(in, fr) }
func (cp *CopyProfiler) Binary(in *ir.Instr, fr *interp.Frame) { cp.reset(in, fr) }
func (cp *CopyProfiler) Native(in *ir.Instr, fr *interp.Frame) { cp.reset(in, fr) }
func (cp *CopyProfiler) New(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	cp.reset(in, fr)
}
func (cp *CopyProfiler) NewArray(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	cp.reset(in, fr)
}
func (cp *CopyProfiler) ArrayLen(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	cp.reset(in, fr)
}

// Unary implements interp.Tracer: a move is a stack copy; the other unary
// operations compute.
func (cp *CopyProfiler) Unary(in *ir.Instr, fr *interp.Frame) {
	if in.Op != ir.OpMove {
		cp.reset(in, fr)
		return
	}
	fs := cp.fshadow(fr)
	fs.cells[in.Dst] = cp.copyFrom(in, fs.cells[in.A])
}

// The heap hooks: a load copies a field or element, whose origin it
// takes; a store copies a local into a location, completing a chain.
// Statics have no allocation site, so a value loaded from one has origin ⊥.
func (cp *CopyProfiler) LoadField(in *ir.Instr, fr *interp.Frame, base *interp.Object) {
	cp.load(in, fr, Origin{Site: base.Site, Field: in.Field.ID})
}
func (cp *CopyProfiler) StoreField(in *ir.Instr, fr *interp.Frame, base *interp.Object, _ interp.Value) {
	cp.store(in, fr, in.B, base, in.Field.Slot, Origin{Site: base.Site, Field: in.Field.ID})
}
func (cp *CopyProfiler) LoadStatic(in *ir.Instr, fr *interp.Frame) { cp.load(in, fr, Bottom) }
func (cp *CopyProfiler) StoreStatic(in *ir.Instr, fr *interp.Frame, _ interp.Value) {
	cp.statics[in.Static.Slot] = cp.copyFrom(in, cp.fshadow(fr).cells[in.A])
}
func (cp *CopyProfiler) LoadElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, _ int64) {
	cp.load(in, fr, Origin{Site: arr.Site, Field: depgraph.ElemField})
}
func (cp *CopyProfiler) StoreElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64, _ interp.Value) {
	cp.store(in, fr, in.C2, arr, int(idx), Origin{Site: arr.Site, Field: depgraph.ElemField})
}

// BeforeCall implements interp.Tracer: argument passing is a stack copy.
func (cp *CopyProfiler) BeforeCall(in *ir.Instr, caller *interp.Frame, callee *ir.Method, recv *interp.Object) {
	fs := cp.fshadow(caller)
	cp.pendArgs = cp.pendArgs[:0]
	for _, a := range in.Args {
		cp.pendArgs = append(cp.pendArgs, fs.cells[a])
	}
	cp.havePend = true
}

// EnterMethod implements interp.Tracer.
func (cp *CopyProfiler) EnterMethod(fr *interp.Frame, recv *interp.Object) {
	fs := &copyFrameShadow{cells: make([]copyCell, fr.Method.NumLocals)}
	if cp.havePend {
		copy(fs.cells, cp.pendArgs)
		cp.havePend = false
	}
	fr.Shadow = fs
}

// BeforeReturn implements interp.Tracer.
func (cp *CopyProfiler) BeforeReturn(in *ir.Instr, fr *interp.Frame) {
	if in.HasA {
		cp.pendRet = cp.fshadow(fr).cells[in.A]
	} else {
		cp.pendRet = copyCell{origin: Bottom}
	}
}

// AfterCall implements interp.Tracer.
func (cp *CopyProfiler) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	ret := cp.pendRet
	cp.pendRet = copyCell{origin: Bottom}
	if !hasValue || in == nil || in.Dst < 0 {
		return
	}
	cp.fshadow(caller).cells[in.Dst] = ret
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
	for src, m := range cp.chains {
		for dst, cnt := range m {
			out = append(out, Chain{Src: src, Dst: dst, Count: cnt, StackHops: cp.stackHops(src, dst)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// stackHops walks backward from store nodes whose origin is src, counting
// the distinct intermediate copy nodes until the load that introduced the
// origin — the "intermediate stack locations" of the extended analysis.
func (cp *CopyProfiler) stackHops(src, dst Origin) int {
	d := cp.encode(src)
	count := 0
	seen := map[*depgraph.Node]bool{}
	cp.G.Nodes(func(n *depgraph.Node) {
		if n.D != d || !n.In.WritesHeap() {
			return
		}
		// Walk the same-origin chain backward.
		cur := n
		for cur != nil && !seen[cur] {
			seen[cur] = true
			if !cur.In.WritesHeap() && !cur.In.ReadsHeap() {
				count++
			}
			var prev *depgraph.Node
			cur.Deps(func(dep *depgraph.Node) {
				if prev == nil && dep.D == d {
					prev = dep
				}
			})
			cur = prev
		}
	})
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
