// Package interproc is the whole-program static layer over the IR: a call
// graph with CHA and RTA resolution of virtual dispatch, an Andersen-style
// flow-insensitive, field-sensitive points-to analysis whose heap abstraction
// mirrors the paper's object-sensitive encoding (allocation sites optionally
// qualified by one level of receiver-object context), interprocedural
// constant propagation for the frequency weights, and a static abstract thin
// slicer that over-approximates the dynamic Gcost with zero execution.
//
// The containment invariant the package maintains — checked on all workloads
// by the differential soundness harness — is that every dependence, reference
// and points-to-child edge the dynamic profiler ever records is covered by
// the static slice, under both CHA and RTA call graphs.
package interproc

import (
	"sort"

	"lowutil/internal/ir"
)

// Mode selects how virtual call sites are resolved when building the call
// graph.
type Mode uint8

const (
	// CHA (class hierarchy analysis) resolves a virtual call against every
	// subclass of the receiver's static class, instantiated or not.
	CHA Mode = iota
	// RTA (rapid type analysis) restricts CHA to classes with an allocation
	// site in a reachable method, iterating to a fixpoint.
	RTA
)

func (m Mode) String() string {
	if m == RTA {
		return "rta"
	}
	return "cha"
}

// CallGraph is the whole-program call graph rooted at Program.Main.
type CallGraph struct {
	Prog *ir.Program
	Mode Mode

	// targets[instrID] holds the resolved callees of an OpCall site, sorted
	// by method ID. Nil for non-call instructions and unreachable sites.
	targets [][]*ir.Method
	// reach[methodID] marks methods reachable from Main.
	reach []bool
	// methods lists the reachable methods sorted by ID.
	methods []*ir.Method
	// callersOf[methodID] lists the reachable call sites targeting a method,
	// sorted by instruction ID.
	callersOf map[int][]*ir.Instr

	numMethods int
	numEdges   int
	virtSites  int
	maxFanout  int
}

// numMethods counts every declared method so per-method tables can be dense.
func countMethods(prog *ir.Program) int {
	n := 0
	for _, c := range prog.Classes {
		n += len(c.Methods)
	}
	return n
}

// NewCallGraph builds the call graph for prog under the given resolution
// mode. Construction is a reachability fixpoint from Main; under RTA the
// instantiated-class set grows with reachability, so resolution and
// reachability iterate together.
func NewCallGraph(prog *ir.Program, mode Mode) *CallGraph {
	nm := countMethods(prog)
	cg := &CallGraph{
		Prog:       prog,
		Mode:       mode,
		targets:    make([][]*ir.Method, len(prog.Instrs)),
		reach:      make([]bool, nm),
		callersOf:  make(map[int][]*ir.Instr),
		numMethods: nm,
	}

	// Classes that may appear as a runtime receiver. CHA: every class. RTA:
	// classes with an OpNew in a reachable method (grown during the fixpoint).
	instantiated := make([]bool, len(prog.Classes))
	if mode == CHA {
		for i := range instantiated {
			instantiated[i] = true
		}
	}

	work := []*ir.Method{prog.Main}
	cg.reach[prog.Main.ID] = true
	// resolved remembers virtual sites already expanded so the RTA fixpoint
	// can revisit them when new classes are instantiated.
	for {
		for len(work) > 0 {
			m := work[len(work)-1]
			work = work[:len(work)-1]
			for pc := range m.Code {
				in := &m.Code[pc]
				if mode == RTA && in.Op == ir.OpNew {
					instantiated[in.Class().ID] = true
				}
				if in.Op != ir.OpCall {
					continue
				}
				for _, t := range cg.resolve(in, instantiated) {
					if !cg.reach[t.ID] {
						cg.reach[t.ID] = true
						work = append(work, t)
					}
				}
			}
		}
		// RTA: newly instantiated classes can widen earlier sites; re-resolve
		// every reachable call site until nothing new becomes reachable.
		grew := false
		for _, m := range cg.reachableByID() {
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != ir.OpCall {
					continue
				}
				for _, t := range cg.resolve(in, instantiated) {
					if !cg.reach[t.ID] {
						cg.reach[t.ID] = true
						work = append(work, t)
						grew = true
					}
				}
			}
		}
		if !grew {
			break
		}
	}

	// Finalize: record targets and callers for reachable sites only, in
	// deterministic order.
	for _, m := range cg.reachableByID() {
		cg.methods = append(cg.methods, m)
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != ir.OpCall {
				continue
			}
			ts := cg.resolve(in, instantiated)
			cg.targets[in.ID] = ts
			cg.numEdges += len(ts)
			if !in.Callee().Static && countOverrides(prog, in.Callee()) > 1 {
				cg.virtSites++
			}
			if len(ts) > cg.maxFanout {
				cg.maxFanout = len(ts)
			}
			for _, t := range ts {
				cg.callersOf[t.ID] = append(cg.callersOf[t.ID], in)
			}
		}
	}
	for _, sites := range cg.callersOf {
		sort.Slice(sites, func(i, j int) bool { return sites[i].ID < sites[j].ID })
	}
	return cg
}

// resolve returns the possible callees of an OpCall site given the current
// instantiated-class set, sorted by method ID.
func (cg *CallGraph) resolve(in *ir.Instr, instantiated []bool) []*ir.Method {
	callee := in.Callee()
	if callee.Static {
		return []*ir.Method{callee}
	}
	seen := make(map[*ir.Method]bool, 2)
	var out []*ir.Method
	for _, c := range cg.Prog.Classes {
		if !instantiated[c.ID] || !c.IsSubclassOf(callee.Class) {
			continue
		}
		t := c.LookupMethod(callee.Name)
		if t != nil && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// countOverrides counts the distinct implementations a virtual callee can
// dispatch to across the whole hierarchy (for call-graph statistics).
func countOverrides(prog *ir.Program, callee *ir.Method) int {
	seen := make(map[*ir.Method]bool)
	for _, c := range prog.Classes {
		if !c.IsSubclassOf(callee.Class) {
			continue
		}
		if t := c.LookupMethod(callee.Name); t != nil {
			seen[t] = true
		}
	}
	return len(seen)
}

// reachableByID returns the currently reachable methods sorted by ID.
func (cg *CallGraph) reachableByID() []*ir.Method {
	var out []*ir.Method
	for _, c := range cg.Prog.Classes {
		for _, m := range c.Methods {
			if cg.reach[m.ID] {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Targets returns the resolved callees of a reachable OpCall site, sorted by
// method ID. Nil for anything else.
func (cg *CallGraph) Targets(in *ir.Instr) []*ir.Method { return cg.targets[in.ID] }

// Reachable reports whether m is reachable from Main.
func (cg *CallGraph) Reachable(m *ir.Method) bool { return cg.reach[m.ID] }

// Methods returns the reachable methods sorted by ID.
func (cg *CallGraph) Methods() []*ir.Method { return cg.methods }

// CallersOf returns the reachable call sites that may target m, sorted by
// instruction ID.
func (cg *CallGraph) CallersOf(m *ir.Method) []*ir.Instr { return cg.callersOf[m.ID] }

// NumMethods returns the number of reachable methods; NumEdges the number of
// call edges (site → target pairs); VirtualSites the number of reachable
// sites whose callee has more than one implementation; MaxFanout the largest
// per-site target count.
func (cg *CallGraph) NumMethods() int   { return len(cg.methods) }
func (cg *CallGraph) NumEdges() int     { return cg.numEdges }
func (cg *CallGraph) VirtualSites() int { return cg.virtSites }
func (cg *CallGraph) MaxFanout() int    { return cg.maxFanout }
