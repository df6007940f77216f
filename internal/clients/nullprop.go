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
// Null propagation and copy profiling follow values: each is a rule over
// package shadow's tracer, stating only its domain D and its abstraction
// function f_a, with D small and bounded, since "by carefully selecting
// domain D and abstraction functions f_a, it is possible to require only a
// small amount of memory for the graph and yet preserve necessary
// information needed for a target analysis". The typestate, rewrite and
// predicate clients are tracers that count events, and the method-cost
// client wraps the profiler. Collection ranking is not a tracer: it reads
// a profile's cost-benefit analysis.
package clients

import (
	"errors"
	"fmt"
	"strings"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/shadow"
)

// Null-propagation abstract domain: D = {notnull, null}.
const (
	dNotNull = 0
	dNull    = 1
)

// NullTracker implements the null-propagation client. It builds an abstract
// dependence graph whose nodes are instructions annotated with whether the
// produced value was null, and answers "where did this null come from and
// how did it get here?" after a NullPointerException. It is a rule over
// the shadow tracer, whose cells are the nodes that last defined each
// location.
type NullTracker struct {
	*shadow.Tracer[*depgraph.Node]
	G *depgraph.Graph
}

// NewNullTracker returns a tracker for prog.
func NewNullTracker(prog *ir.Program) *NullTracker {
	nt := &NullTracker{G: depgraph.New(prog)}
	nt.Tracer = shadow.New[*depgraph.Node](prog, nt)
	return nt
}

// Cell is f_a: the node of in annotated with d = null iff v is the null
// reference, depending on the nodes of the values v flows from. Tracking
// every value uniformly is simpler than tracking only references, and
// still bounded by 2|I| nodes. A new array's length and a native's
// arguments do not flow into its value, nor does an array access's index.
func (nt *NullTracker) Cell(in *ir.Instr, _ *interp.Object, v interp.Value, ops []*depgraph.Node) *depgraph.Node {
	d := dNotNull
	if v.IsNull() {
		d = dNull
	}
	n := nt.G.Touch(in, d)
	switch in.Op {
	case ir.OpNewArray, ir.OpNative:
	case ir.OpALoad, ir.OpAStore:
		nt.G.AddDep(n, ops[0])
	default:
		for _, op := range ops {
			nt.G.AddDep(n, op)
		}
	}
	return n
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
		baseSlot = in.Args()[0]
	}
	start := nt.Local(vmErr.Frame, int(baseSlot))
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
