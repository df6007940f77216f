package depgraph

import "testing"

// scc condenses g's def→use direction through Snapshot.Condense, the one
// SCC implementation, and returns its components in reverse topological
// order (every def→use edge goes from a later component to an earlier one)
// with each node's component index.
func scc(g *Graph) (comps [][]*Node, compOf map[*Node]int) {
	s := g.Freeze()
	c := s.Condense(true, nil)
	compOf = make(map[*Node]int, s.NumNodes())
	for ci := 0; ci < c.NumComps; ci++ {
		var comp []*Node
		for _, v := range c.Members(int32(ci)) {
			comp = append(comp, s.Nodes[v])
			compOf[s.Nodes[v]] = ci
		}
		comps = append(comps, comp)
	}
	return comps, compOf
}

func TestSCCEmptyGraph(t *testing.T) {
	g := New(mkProg(t, 1))
	comps, compOf := scc(g)
	if len(comps) != 0 || len(compOf) != 0 {
		t.Errorf("empty graph: comps=%v compOf=%v", comps, compOf)
	}
}

func TestSCCSelfLoop(t *testing.T) {
	prog := mkProg(t, 1)
	g := New(prog)
	a := g.Touch(prog.Instrs[0], 0)
	g.AddDep(a, a)
	comps, compOf := scc(g)
	if len(comps) != 1 || len(comps[0]) != 1 || comps[0][0] != a {
		t.Fatalf("self-loop: comps=%v", comps)
	}
	if compOf[a] != 0 {
		t.Errorf("compOf[a] = %d, want 0", compOf[a])
	}
}

// TestSCCInterlockingCycles: two 2-cycles joined by one edge condense to
// two components in reverse topological order — the def→use edge between
// them must go from the later component to the earlier.
func TestSCCInterlockingCycles(t *testing.T) {
	prog := mkProg(t, 4)
	g := New(prog)
	a := g.Touch(prog.Instrs[0], 0)
	b := g.Touch(prog.Instrs[1], 0)
	c := g.Touch(prog.Instrs[2], 0)
	d := g.Touch(prog.Instrs[3], 0)
	// a <-> b and c <-> d (AddDep(x, y) records the value edge y -> x).
	g.AddDep(a, b)
	g.AddDep(b, a)
	g.AddDep(c, d)
	g.AddDep(d, c)
	// One cross edge: c consumes b's value, so b -> c in the uses direction.
	g.AddDep(c, b)

	comps, compOf := scc(g)
	if len(comps) != 2 {
		t.Fatalf("comps = %d, want 2", len(comps))
	}
	if compOf[a] != compOf[b] || compOf[c] != compOf[d] || compOf[a] == compOf[c] {
		t.Fatalf("membership wrong: a=%d b=%d c=%d d=%d",
			compOf[a], compOf[b], compOf[c], compOf[d])
	}
	for _, comp := range comps {
		if len(comp) != 2 {
			t.Errorf("component size %d, want 2", len(comp))
		}
	}
	// Reverse topological order: the uses edge b -> c requires c's
	// component to come before b's in the returned slice.
	if compOf[c] >= compOf[b] {
		t.Errorf("reverse topological order violated: compOf[c]=%d compOf[b]=%d",
			compOf[c], compOf[b])
	}
}

// TestSCCSharedNodeCycles: two cycles sharing a node are one component.
func TestSCCSharedNodeCycles(t *testing.T) {
	prog := mkProg(t, 5)
	g := New(prog)
	n := make([]*Node, 5)
	for i := range n {
		n[i] = g.Touch(prog.Instrs[i], 0)
	}
	// Cycle 1: n0 -> n1 -> n2 -> n0; cycle 2: n2 -> n3 -> n4 -> n2.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}}
	for _, e := range edges {
		g.AddDep(n[e[1]], n[e[0]]) // value edge e[0] -> e[1]
	}
	comps, compOf := scc(g)
	if len(comps) != 1 || len(comps[0]) != 5 {
		t.Fatalf("interlocked cycles must condense to one component: %v", comps)
	}
	for _, node := range n {
		if compOf[node] != 0 {
			t.Errorf("node outside the single component")
		}
	}
}
