package clients

import (
	"fmt"
	"strings"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// State is a typestate in a Protocol.
type State int

// Protocol is a typestate specification in the QVM style: objects from the
// tracked allocation sites start in Init, and each tracked method name moves
// the object between states. A call with no transition from the current
// state is a violation.
type Protocol struct {
	// NumStates bounds the state space (domain S).
	NumStates int
	// Init is the initial state of freshly allocated tracked objects.
	Init State
	// Transitions maps (state, method name) to the successor state.
	Transitions map[StateMethod]State
	// StateNames optionally names states for reports.
	StateNames []string
}

// StateMethod keys a transition.
type StateMethod struct {
	From   State
	Method string
}

// Tracked reports whether method participates in the protocol at all.
func (p *Protocol) tracked(method string) bool {
	for k := range p.Transitions {
		if k.Method == method {
			return true
		}
	}
	return false
}

func (p *Protocol) stateName(s State) string {
	if int(s) < len(p.StateNames) {
		return p.StateNames[s]
	}
	return fmt.Sprintf("s%d", s)
}

// Violation is a typestate protocol violation: a tracked method invoked in a
// state with no transition.
type Violation struct {
	Object   *interp.Object
	Site     int    // allocation site of the object
	Method   string // offending method
	In       *ir.Instr
	State    State
	StateStr string
	// History is the recorded event history for the object's abstraction
	// (instructions annotated with (site, state-before)).
	History []*depgraph.Node
}

func (v *Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "typestate violation: %s called in state %s on object from site %d\n",
		v.Method, v.StateStr, v.Site)
	for _, n := range v.History {
		fmt.Fprintf(&sb, "  %s pc %d (%s)\n", n.In.Method.QualifiedName(), n.In.PC, n.In)
	}
	return sb.String()
}

// TypestateTracker implements the typestate-history client of Figure 2(b):
// abstract dynamic slicing with domain D = O × S. Nodes are call
// instructions annotated with (allocation site, state before the call);
// next-event edges (stored as dependence edges, as the paper suggests —
// "def-use edges between nodes that write and read the object state tag")
// summarize per-object event histories into a DFA-like graph.
type TypestateTracker struct {
	interp.NopTracer
	G          *depgraph.Graph
	Proto      *Protocol
	Sites      map[int]bool // tracked allocation sites
	Violations []*Violation

	prog *ir.Program
}

// NewTypestateTracker tracks objects allocated at the given sites.
func NewTypestateTracker(prog *ir.Program, proto *Protocol, sites ...int) *TypestateTracker {
	ts := &TypestateTracker{
		G:     depgraph.New(prog),
		Proto: proto,
		Sites: make(map[int]bool, len(sites)),
		prog:  prog,
	}
	for _, s := range sites {
		ts.Sites[s] = true
	}
	return ts
}

// tsShadow is the per-object tag: current state plus the last event node
// (for next-event edges).
type tsShadow struct {
	state State
	last  *depgraph.Node
	dead  bool // violation already reported
}

func (ts *TypestateTracker) encode(site int, s State) int {
	return site*ts.Proto.NumStates + int(s)
}

// New implements interp.Tracer: objects from tracked sites start in the
// protocol's initial state. Past allocation, typestate only cares about
// calls, which arrive via BeforeCall.
func (ts *TypestateTracker) New(in *ir.Instr, _ *interp.Frame, o *interp.Object) {
	if ts.Sites[in.AllocSite] {
		o.Shadow = &tsShadow{state: ts.Proto.Init}
	}
}

// BeforeCall implements interp.Tracer: the abstraction function is defined
// only for invocations on tracked objects whose method can change state.
func (ts *TypestateTracker) BeforeCall(in *ir.Instr, caller *interp.Frame, callee *ir.Method, recv *interp.Object) {
	if recv == nil {
		return
	}
	sh, ok := recv.Shadow.(*tsShadow)
	if !ok || sh.dead || !ts.Proto.tracked(callee.Name) {
		return
	}
	n := ts.G.Touch(in, ts.encode(recv.Site, sh.state))
	if sh.last != nil {
		// Next-event edge: conceptually a def-use edge on the state tag.
		ts.G.AddDep(n, sh.last)
	}
	next, ok := ts.Proto.Transitions[StateMethod{sh.state, callee.Name}]
	if !ok {
		ts.Violations = append(ts.Violations, &Violation{
			Object:   recv,
			Site:     recv.Site,
			Method:   callee.Name,
			In:       in,
			State:    sh.state,
			StateStr: ts.Proto.stateName(sh.state),
			History:  ts.history(n),
		})
		sh.dead = true
		sh.last = n
		return
	}
	sh.state = next
	sh.last = n
}

// history walks the next-event chain backward from n.
func (ts *TypestateTracker) history(n *depgraph.Node) []*depgraph.Node {
	var out []*depgraph.Node
	seen := map[*depgraph.Node]bool{}
	cur := n
	for cur != nil && !seen[cur] {
		seen[cur] = true
		out = append(out, cur)
		var prev *depgraph.Node
		cur.Deps(func(d *depgraph.Node) {
			if prev == nil {
				prev = d
			}
		})
		cur = prev
	}
	// Reverse into chronological order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

var _ interp.Tracer = (*TypestateTracker)(nil)
