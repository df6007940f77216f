// Package clients implements the client analyses the paper builds on top of
// abstract dynamic thin slicing (§2.1) and on Gcost (§3.2):
//
//   - null-value propagation tracking (Figure 2(a))
//   - typestate history recording (Figure 2(b), QVM-style)
//   - extended copy profiling with intermediate stack nodes (Figure 2(c))
//   - method-level relative cost
//   - locations rewritten before being read
//   - always-true / always-false predicate detection
//   - collection ranking by cost-benefit rate
//
// Each client is an interp.Tracer with a small bounded abstract domain,
// demonstrating that "by carefully selecting domain D and abstraction
// functions f_a, it is possible to require only a small amount of memory for
// the graph and yet preserve necessary information needed for a target
// analysis".
package clients

import (
	"errors"
	"fmt"
	"strings"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// Null-propagation abstract domain: D = {notnull, null}.
const (
	dNotNull = 0
	dNull    = 1
)

// NullTracker implements the null-propagation client. It builds an abstract
// dependence graph whose nodes are instructions annotated with whether the
// produced value was null, and answers "where did this null come from and
// how did it get here?" after a NullPointerException.
type NullTracker struct {
	interp.NopTracer
	G *depgraph.Graph

	statics  []*depgraph.Node
	pendArgs []*depgraph.Node
	havePend bool
	pendRet  *depgraph.Node
}

// NewNullTracker returns a tracker for prog.
func NewNullTracker(prog *ir.Program) *NullTracker {
	return &NullTracker{
		G:       depgraph.New(prog),
		statics: make([]*depgraph.Node, len(prog.Statics)),
	}
}

type nullFrameShadow struct{ nodes []*depgraph.Node }
type nullObjShadow struct{ slots []*depgraph.Node }

func (nt *NullTracker) fshadow(fr *interp.Frame) *nullFrameShadow {
	if fs, ok := fr.Shadow.(*nullFrameShadow); ok {
		return fs
	}
	fs := &nullFrameShadow{nodes: make([]*depgraph.Node, len(fr.Locals))}
	fr.Shadow = fs
	return fs
}

func (nt *NullTracker) oshadow(o *interp.Object) *nullObjShadow {
	if os, ok := o.Shadow.(*nullObjShadow); ok {
		return os
	}
	n := len(o.Fields)
	if o.IsArray() {
		n = len(o.Elems)
	}
	os := &nullObjShadow{slots: make([]*depgraph.Node, n)}
	o.Shadow = os
	return os
}

// abstraction: d = null iff the produced value is the null reference.
func dOf(v interp.Value) int {
	if v.IsNull() {
		return dNull
	}
	return dNotNull
}

// def makes the node for in, annotated by whether the value it wrote to
// its destination is null, as the destination's new shadow, depending on
// dep. Only reference-relevant flows matter, but tracking every value
// uniformly is simpler and still bounded by 2|I| nodes.
func (nt *NullTracker) def(in *ir.Instr, fr *interp.Frame, dep *depgraph.Node) *depgraph.Node {
	n := nt.G.Touch(in, dOf(fr.Locals[in.Dst]))
	nt.G.AddDep(n, dep)
	nt.fshadow(fr).nodes[in.Dst] = n
	return n
}

// The hooks: every value-producing instruction defines its destination,
// depending on its operands or on the location it loads; a store's node
// becomes the location's shadow. A move copies its operand's annotation,
// and the other unary operations produce ints.
func (nt *NullTracker) Const(in *ir.Instr, fr *interp.Frame) { nt.def(in, fr, nil) }
func (nt *NullTracker) Unary(in *ir.Instr, fr *interp.Frame) {
	nt.def(in, fr, nt.fshadow(fr).nodes[in.A])
}
func (nt *NullTracker) Binary(in *ir.Instr, fr *interp.Frame) {
	fs := nt.fshadow(fr)
	b := fs.nodes[in.B] // read before def overwrites a destination that is B
	nt.G.AddDep(nt.def(in, fr, fs.nodes[in.A]), b)
}
func (nt *NullTracker) ArrayLen(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	nt.def(in, fr, nt.fshadow(fr).nodes[in.A])
}
func (nt *NullTracker) New(in *ir.Instr, fr *interp.Frame, _ *interp.Object) { nt.def(in, fr, nil) }
func (nt *NullTracker) NewArray(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	nt.def(in, fr, nil)
}
func (nt *NullTracker) LoadField(in *ir.Instr, fr *interp.Frame, base *interp.Object) {
	nt.def(in, fr, nt.slot(base, in.Field.Slot))
}
func (nt *NullTracker) StoreField(in *ir.Instr, fr *interp.Frame, base *interp.Object, v interp.Value) {
	nt.store(base, in.Field.Slot, nt.use(in, fr, in.B, v))
}
func (nt *NullTracker) LoadStatic(in *ir.Instr, fr *interp.Frame) {
	nt.def(in, fr, nt.statics[in.Static.Slot])
}
func (nt *NullTracker) StoreStatic(in *ir.Instr, fr *interp.Frame, v interp.Value) {
	nt.statics[in.Static.Slot] = nt.use(in, fr, in.A, v)
}
func (nt *NullTracker) LoadElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64) {
	nt.def(in, fr, nt.slot(arr, int(idx)))
}
func (nt *NullTracker) StoreElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64, v interp.Value) {
	nt.store(arr, int(idx), nt.use(in, fr, in.C2, v))
}
func (nt *NullTracker) Native(in *ir.Instr, fr *interp.Frame) {
	if in.Dst >= 0 {
		nt.def(in, fr, nil)
	}
}

// use makes the node for a store of v, read from local slot s.
func (nt *NullTracker) use(in *ir.Instr, fr *interp.Frame, s int, v interp.Value) *depgraph.Node {
	n := nt.G.Touch(in, dOf(v))
	nt.G.AddDep(n, nt.fshadow(fr).nodes[s])
	return n
}

// slot returns the shadow of o's field or element i, nil if it has none.
func (nt *NullTracker) slot(o *interp.Object, i int) *depgraph.Node {
	if os := nt.oshadow(o); i < len(os.slots) {
		return os.slots[i]
	}
	return nil
}

// store makes n the shadow of o's field or element i.
func (nt *NullTracker) store(o *interp.Object, i int, n *depgraph.Node) {
	if os := nt.oshadow(o); i < len(os.slots) {
		os.slots[i] = n
	}
}

// BeforeCall implements interp.Tracer.
func (nt *NullTracker) BeforeCall(in *ir.Instr, caller *interp.Frame, callee *ir.Method, recv *interp.Object) {
	fs := nt.fshadow(caller)
	nt.pendArgs = nt.pendArgs[:0]
	for _, a := range in.Args {
		nt.pendArgs = append(nt.pendArgs, fs.nodes[a])
	}
	nt.havePend = true
}

// EnterMethod implements interp.Tracer.
func (nt *NullTracker) EnterMethod(fr *interp.Frame, recv *interp.Object) {
	fs := &nullFrameShadow{nodes: make([]*depgraph.Node, fr.Method.NumLocals)}
	if nt.havePend {
		copy(fs.nodes, nt.pendArgs)
		nt.havePend = false
	}
	fr.Shadow = fs
}

// BeforeReturn implements interp.Tracer.
func (nt *NullTracker) BeforeReturn(in *ir.Instr, fr *interp.Frame) {
	if in.HasA {
		nt.pendRet = nt.fshadow(fr).nodes[in.A]
	} else {
		nt.pendRet = nil
	}
}

// AfterCall implements interp.Tracer.
func (nt *NullTracker) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	ret := nt.pendRet
	nt.pendRet = nil
	if !hasValue || in == nil || in.Dst < 0 {
		return
	}
	fs := nt.fshadow(caller)
	d := dNotNull
	if caller.Locals[in.Dst].IsNull() {
		d = dNull
	}
	n := nt.G.Touch(in, d)
	nt.G.AddDep(n, ret)
	fs.nodes[in.Dst] = n
}

// NullReport explains a NullPointerException: the instruction that
// originally produced the null, the flow of copies it travelled, and the
// dereference site.
type NullReport struct {
	Origin *ir.Instr
	Flow   []*ir.Instr // origin … deref-predecessor, in flow order
	Deref  *ir.Instr
}

func (r *NullReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "null created at %s pc %d (%s)\n", r.Origin.Method.QualifiedName(), r.Origin.PC, r.Origin)
	for _, in := range r.Flow[1:] {
		fmt.Fprintf(&sb, "  flows via %s pc %d (%s)\n", in.Method.QualifiedName(), in.PC, in)
	}
	fmt.Fprintf(&sb, "dereferenced at %s pc %d (%s)", r.Deref.Method.QualifiedName(), r.Deref.PC, r.Deref)
	return sb.String()
}

// Diagnose explains a null-dereference VMError using the recorded graph: it
// walks backward from the null value that reached the failing base slot,
// following null-annotated nodes, to the node where the null was created.
func (nt *NullTracker) Diagnose(err error) (*NullReport, bool) {
	var vmErr *interp.VMError
	if !errors.As(err, &vmErr) || vmErr.Kind != interp.ErrNullDeref {
		return nil, false
	}
	in := vmErr.In
	baseSlot := in.A
	if in.Op == ir.OpCall {
		baseSlot = in.Args[0]
	}
	fs := nt.fshadow(vmErr.Frame)
	start := fs.nodes[baseSlot]
	if start == nil || start.D != dNull {
		return nil, false
	}
	// Walk to the origin: repeatedly step to a null-annotated dependency.
	var flow []*ir.Instr
	seen := map[*depgraph.Node]bool{}
	cur := start
	for cur != nil && !seen[cur] {
		seen[cur] = true
		flow = append(flow, cur.In)
		var next *depgraph.Node
		cur.Deps(func(d *depgraph.Node) {
			if next == nil && d.D == dNull {
				next = d
			}
		})
		cur = next
	}
	// flow is deref-side first; reverse into creation order.
	for i, j := 0, len(flow)-1; i < j; i, j = i+1, j-1 {
		flow[i], flow[j] = flow[j], flow[i]
	}
	return &NullReport{Origin: flow[0], Flow: flow, Deref: in}, true
}

var _ interp.Tracer = (*NullTracker)(nil)
