package deadness

// Differential proof that the frozen-snapshot propagation matches the
// original map-based SCC path (analyzeReference over its own Tarjan,
// referenceSCC) on every workload: same per-node outcomes and same
// aggregate IPD/IPP/NLD inputs.

import (
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

func TestFrozenMatchesLegacyAllWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads.All()))
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if testing.Short() {
		names = []string{"bloat", "eclipse", "xalan"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
			prog, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			p := profiler.New(prog, profiler.Options{Slots: 16})
			m := interp.New(prog)
			m.Tracer = p
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}

			frozen := Analyze(p.G, m.Steps)
			ref, refOut := analyzeReference(p.G, m.Steps)

			if frozen.Instances != ref.Instances ||
				frozen.TotalInstances != ref.TotalInstances ||
				frozen.DeadFreq != ref.DeadFreq ||
				frozen.PredFreq != ref.PredFreq ||
				frozen.DeadNodes != ref.DeadNodes ||
				frozen.Nodes != ref.Nodes {
				t.Fatalf("aggregates differ:\n frozen %+v\n ref    %+v", frozen, ref)
			}
			if len(frozen.Out) != len(refOut) {
				t.Fatalf("Out: %d vs %d nodes", len(frozen.Out), len(refOut))
			}
			s := p.G.Freeze()
			for n, out := range refOut {
				id, ok := s.ID(n)
				if !ok {
					t.Fatalf("reference node %v is not in the snapshot", n)
				}
				if frozen.Out[id] != out {
					t.Fatalf("outcome of %v: frozen %b, reference %b", n, frozen.Out[id], out)
				}
			}
		})
	}
}

// referenceSCC is the original map-based Tarjan over the def→use direction,
// kept with analyzeReference so the reference shares no SCC code with the
// product's Snapshot.Condense. It returns the components in reverse
// topological order (every edge goes from a later component to an earlier
// one) plus the component index of each node.
func referenceSCC(g *depgraph.Graph) (comps [][]*depgraph.Node, compOf map[*depgraph.Node]int) {
	const unvisited = 0
	index := make(map[*depgraph.Node]int32, g.NumNodes())
	low := make(map[*depgraph.Node]int32, g.NumNodes())
	onStack := make(map[*depgraph.Node]bool, g.NumNodes())
	var stack []*depgraph.Node
	compOf = make(map[*depgraph.Node]int, g.NumNodes())
	next := int32(1)

	type frame struct {
		n    *depgraph.Node
		succ []*depgraph.Node
		i    int
	}
	succsOf := func(n *depgraph.Node) []*depgraph.Node {
		var out []*depgraph.Node
		n.Uses(func(u *depgraph.Node) { out = append(out, u) })
		return out
	}

	g.Nodes(func(root *depgraph.Node) {
		if index[root] != unvisited {
			return
		}
		work := []frame{{n: root, succ: succsOf(root)}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.i < len(f.succ) {
				s := f.succ[f.i]
				f.i++
				if index[s] == unvisited {
					index[s] = next
					low[s] = next
					next++
					stack = append(stack, s)
					onStack[s] = true
					work = append(work, frame{n: s, succ: succsOf(s)})
				} else if onStack[s] && index[s] < low[f.n] {
					low[f.n] = index[s]
				}
				continue
			}
			// f.n finished.
			n := f.n
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].n
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []*depgraph.Node
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					compOf[top] = len(comps)
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	})
	return comps, compOf
}

// analyzeReference is the original map-based propagation over
// referenceSCC, kept as the reference the frozen path is compared against.
// It returns the aggregates and every node's outcome.
func analyzeReference(g *depgraph.Graph, totalInstances int64) (*Result, map[*depgraph.Node]Outcome) {
	comps, compOf := referenceSCC(g)

	// comps is in reverse topological order: every def→use edge goes from a
	// component with a smaller index (the use side was emitted first by
	// Tarjan)… Tarjan emits a component only after all components reachable
	// from it, so successors have smaller indices. Process components in
	// index order: successors are already resolved.
	outOf := make([]Outcome, len(comps))
	for ci, comp := range comps {
		var out Outcome
		hasExternalSucc := false
		consumerOnly := true
		for _, n := range comp {
			if n.IsConsumer() {
				if n.IsPredicate() {
					out |= OutPredicate
				} else {
					out |= OutNative
				}
				continue
			}
			consumerOnly = false
			n.Uses(func(u *depgraph.Node) {
				uc := compOf[u]
				if uc == ci {
					return // intra-component edge
				}
				hasExternalSucc = true
				out |= outOf[uc]
			})
		}
		if !consumerOnly && !hasExternalSucc && out == 0 {
			// A use-free (or internally cyclic) non-consumer component: D.
			out = OutDead
		}
		outOf[ci] = out
	}

	res := &Result{}
	outs := make(map[*depgraph.Node]Outcome, g.NumNodes())
	g.Nodes(func(n *depgraph.Node) {
		res.Nodes++
		out := outOf[compOf[n]]
		outs[n] = out
		if n.IsConsumer() {
			return
		}
		res.Instances += n.Freq()
		switch out {
		case OutDead:
			res.DeadFreq += n.Freq()
			res.DeadNodes++
		case OutPredicate:
			res.PredFreq += n.Freq()
		}
	})
	res.TotalInstances = totalInstances
	if res.TotalInstances == 0 {
		res.TotalInstances = res.Instances
	}
	return res, outs
}
