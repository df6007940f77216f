package interproc

import (
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// profileDynamic runs prog under the thin profiler and returns its Gcost.
func profileDynamic(t *testing.T, name string, prog *ir.Program) *depgraph.Graph {
	t.Helper()
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	m.MaxSteps = 200_000_000
	if err := m.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p.G
}

// checkContainment asserts the containment invariant: every dependence,
// reference and points-to-child edge of the dynamic Gcost, projected to
// static instructions, is an edge of the static slice.
func checkContainment(t *testing.T, name string, g *depgraph.Graph, an *Analysis) {
	t.Helper()
	label := name + "/" + an.CG.Mode.String()
	missing := 0
	report := func(format string, args ...any) {
		missing++
		if missing <= 10 {
			t.Errorf(format, args...)
		}
	}
	g.Nodes(func(n *depgraph.Node) {
		n.Deps(func(d *depgraph.Node) {
			if !an.Slice.HasDep(int(n.In.ID), int(d.In.ID)) {
				report("%s: dynamic dep %v -> %v (i%d -> i%d: %s -> %s) not in static slice",
					label, n, d, n.In.ID, d.In.ID, n.In, d.In)
			}
		})
		n.RefEdges(func(al *depgraph.Node) {
			if !an.Slice.HasRef(int(n.In.ID), int(al.In.ID)) {
				report("%s: dynamic ref %v -> %v not in static slice", label, n, al)
			}
		})
	})
	owners := []*depgraph.Node{nil}
	g.Nodes(func(n *depgraph.Node) {
		if n.Eff == depgraph.EffAlloc {
			owners = append(owners, n)
		}
	})
	for _, o := range owners {
		ownerID := -1
		if o != nil {
			ownerID = int(o.In.ID)
		}
		g.Children(o, func(field int, child *depgraph.Node) {
			if !an.Slice.HasChild(ownerID, field, int(child.In.ID)) {
				report("%s: dynamic child (%d,%d) -> i%d not in static slice",
					label, ownerID, field, child.In.ID)
			}
		})
	}
	if missing > 10 {
		t.Errorf("%s: %d dynamic edges missing from the static slice in total", label, missing)
	}
}

// TestSoundnessAllWorkloads is the differential soundness harness: on every
// workload, the dynamic Gcost must be contained in the static slice under
// both the CHA and the RTA call graph (the RTA variant additionally enables
// the object-sensitive heap abstraction, exercising the finer objects).
func TestSoundnessAllWorkloads(t *testing.T) {
	shortSet := map[string]bool{"chart": true, "avrora": true, "hsqldb": true, "luindex": true}
	for _, w := range workloads.All() {
		if testing.Short() && !shortSet[w.Name] {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			g := profileDynamic(t, w.Name, prog)
			if g.NumDepEdges() == 0 {
				t.Fatalf("%s: dynamic graph has no dep edges; harness would be vacuous", w.Name)
			}
			checkContainment(t, w.Name, g, Analyze(prog, Config{Mode: CHA}))
			checkContainment(t, w.Name, g, Analyze(prog, Config{Mode: RTA, ObjCtx: true}))
		})
	}
}
