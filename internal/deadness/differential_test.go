package deadness

// Differential proof that the frozen-snapshot propagation matches the
// original map-based SCC path (analyzeReference) on every workload: same per-node outcomes and
// same aggregate IPD/IPP/NLD inputs.

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
			ref := analyzeReference(p.G, m.Steps)

			if frozen.Instances != ref.Instances ||
				frozen.TotalInstances != ref.TotalInstances ||
				frozen.DeadFreq != ref.DeadFreq ||
				frozen.PredFreq != ref.PredFreq ||
				frozen.DeadNodes != ref.DeadNodes ||
				frozen.Nodes != ref.Nodes {
				t.Fatalf("aggregates differ:\n frozen %+v\n ref    %+v", frozen, ref)
			}
			if len(frozen.Out) != len(ref.Out) {
				t.Fatalf("Out: %d vs %d nodes", len(frozen.Out), len(ref.Out))
			}
			for n, out := range ref.Out {
				if frozen.Out[n] != out {
					t.Fatalf("outcome of %v: frozen %b, reference %b", n, frozen.Out[n], out)
				}
			}
		})
	}
}

// analyzeReference is the original map-based propagation over Graph.SCC,
// kept as the reference the frozen path is compared against.
func analyzeReference(g *depgraph.Graph, totalInstances int64) *Result {
	comps, compOf := g.SCC()

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

	res := &Result{Out: make(map[*depgraph.Node]Outcome, g.NumNodes())}
	g.Nodes(func(n *depgraph.Node) {
		res.Nodes++
		out := outOf[compOf[n]]
		res.Out[n] = out
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
	return res
}
