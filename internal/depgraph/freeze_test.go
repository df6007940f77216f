package depgraph

import (
	"sort"
	"testing"
)

// buildDiamond constructs a small graph with a shared subgraph, a ref edge,
// and location tables, exercising every CSR family.
func buildDiamond(t *testing.T) (*Graph, []*Node) {
	t.Helper()
	prog := mkProg(t, 5)
	g := New(prog)
	nodes := make([]*Node, 5)
	for i := range nodes {
		nodes[i] = g.Node(prog.Instrs[i], 0)
		nodes[i].SetFreq(int64(i + 1))
	}
	g.AddDep(nodes[1], nodes[0])
	g.AddDep(nodes[2], nodes[0])
	g.AddDep(nodes[3], nodes[1])
	g.AddDep(nodes[3], nodes[2])
	g.AddRef(nodes[4], nodes[0])
	loc := Loc{Alloc: nodes[0], Field: 2}
	g.AddLocStore(loc, nodes[1])
	g.AddLocStore(loc, nodes[2])
	g.AddLocLoad(loc, nodes[3])
	g.AddChild(loc, nodes[4])
	return g, nodes
}

func TestFreezeCSRMatchesGraph(t *testing.T) {
	g, nodes := buildDiamond(t)
	s := g.Freeze()

	if s.NumNodes() != len(nodes) {
		t.Fatalf("NumNodes = %d, want %d", s.NumNodes(), len(nodes))
	}
	// Dense IDs follow (instruction, d) order.
	for i := 1; i < len(s.Nodes); i++ {
		if !nodeLess(s.Nodes[i-1], s.Nodes[i]) {
			t.Fatalf("Nodes not in canonical order at %d", i)
		}
	}
	for i, nd := range s.Nodes {
		id, ok := s.ID(nd)
		if !ok || id != int32(i) {
			t.Fatalf("ID(%v) = %d,%v want %d", nd.In.ID, id, ok, i)
		}
		if s.Freq[i] != nd.Freq() || int(s.D[i]) != nd.D || s.Eff[i] != nd.Eff {
			t.Fatalf("parallel arrays disagree with node %d", i)
		}
	}

	// Each adjacency row is sorted and matches the live edge set.
	checkRows := func(name string, start, data []int32, liveOf func(*Node) map[*Node]bool) {
		for i, nd := range s.Nodes {
			row := data[start[i]:start[i+1]]
			if !sort.SliceIsSorted(row, func(a, b int) bool { return row[a] < row[b] }) {
				t.Fatalf("%s row %d not sorted", name, i)
			}
			live := liveOf(nd)
			if len(row) != len(live) {
				t.Fatalf("%s row %d: %d entries, want %d", name, i, len(row), len(live))
			}
			for _, id := range row {
				if !live[s.Nodes[id]] {
					t.Fatalf("%s row %d: unexpected edge to %d", name, i, id)
				}
			}
		}
	}
	liveSet := func(each func(func(*Node))) map[*Node]bool {
		m := make(map[*Node]bool)
		each(func(n *Node) { m[n] = true })
		return m
	}
	checkRows("dep", s.DepStart, s.Dep, func(n *Node) map[*Node]bool { return liveSet(n.Deps) })
	checkRows("use", s.UseStart, s.Use, func(n *Node) map[*Node]bool { return liveSet(n.Uses) })
	checkRows("ref", s.RefStart, s.Ref, func(n *Node) map[*Node]bool { return liveSet(n.RefEdges) })

	// Location tables round-trip.
	loc := Loc{Alloc: nodes[0], Field: 2}
	li, ok := s.LocID(loc)
	if !ok {
		t.Fatalf("LocID missing for %v", loc)
	}
	if got := s.Store[s.StoreStart[li]:s.StoreStart[li+1]]; len(got) != 2 {
		t.Fatalf("stores of loc = %v, want 2 entries", got)
	}
	if got := s.Load[s.LoadStart[li]:s.LoadStart[li+1]]; len(got) != 1 {
		t.Fatalf("loads of loc = %v, want 1 entry", got)
	}
	oi, _ := s.ID(nodes[0])
	if got := s.OwnerField[s.OwnerFieldStart[oi]:s.OwnerFieldStart[oi+1]]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("owner fields = %v, want [2]", got)
	}
	if got := s.Child[s.ChildStart[oi]:s.ChildStart[oi+1]]; len(got) != 1 || s.Nodes[got[0]] != nodes[4] {
		t.Fatalf("children = %v, want [node4]", got)
	}
}

func TestFreezeCachedAndInvalidated(t *testing.T) {
	g, nodes := buildDiamond(t)
	s1 := g.Freeze()
	if g.Freeze() != s1 {
		t.Fatal("Freeze not cached between calls")
	}
	g.AddDep(nodes[0], nodes[4])
	s2 := g.Freeze()
	if s2 == s1 {
		t.Fatal("mutation did not invalidate the snapshot")
	}
	id0, _ := s2.ID(nodes[0])
	row := s2.Dep[s2.DepStart[id0]:s2.DepStart[id0+1]]
	if len(row) != 1 || s2.Nodes[row[0]] != nodes[4] {
		t.Fatalf("new edge missing from rebuilt snapshot: %v", row)
	}
}

// TestLocIDSkipsUnaccessedLocations: LocID answers through the graph's
// location index, so a location entry that holds only points-to children,
// or that was first loaded after the snapshot was taken, is not in it.
func TestLocIDSkipsUnaccessedLocations(t *testing.T) {
	g, nodes := buildDiamond(t)
	s1 := g.Freeze()
	loc := Loc{Alloc: nodes[4], Field: 1}
	g.AddChild(loc, nodes[0])
	s2 := g.Freeze()
	g.AddLocLoad(loc, nodes[3])
	s3 := g.Freeze()
	for _, c := range []struct {
		name string
		s    *Snapshot
		want bool
	}{{"before the entry", s1, false}, {"children only", s2, false}, {"loaded", s3, true}} {
		if _, ok := c.s.LocID(loc); ok != c.want {
			t.Errorf("%s: LocID found %v, want %v", c.name, ok, c.want)
		}
	}
}

func TestCondenseReverseTopological(t *testing.T) {
	g, nodes := buildDiamond(t)
	g.AddDep(nodes[0], nodes[3]) // close a cycle 0→{1,2}→3→0 in dep direction
	s := g.Freeze()

	for _, forward := range []bool{false, true} {
		c := s.Condense(forward, nil)
		seen := 0
		for ci := int32(0); ci < int32(c.NumComps); ci++ {
			seen += len(c.Members(ci))
			for _, t2 := range c.Succs(ci) {
				if t2 >= ci {
					t.Fatalf("forward=%v: edge %d→%d violates reverse topo order", forward, ci, t2)
				}
			}
		}
		if seen != s.NumNodes() {
			t.Fatalf("forward=%v: components cover %d nodes, want %d", forward, seen, s.NumNodes())
		}
		// The 4-cycle must collapse into one component.
		c0 := c.CompOf[0]
		for _, v := range []int32{1, 2, 3} {
			if c.CompOf[v] != c0 {
				t.Fatalf("forward=%v: cycle nodes split across components", forward)
			}
		}
	}
}

func TestCondenseBoundarySingleton(t *testing.T) {
	g, nodes := buildDiamond(t)
	g.AddDep(nodes[0], nodes[3]) // cycle 0,1,2,3
	s := g.Freeze()
	boundary := make([]bool, s.NumNodes())
	id3, _ := s.ID(nodes[3])
	boundary[id3] = true

	c := s.Condense(false, boundary)
	// With node 3's out-edges dropped, the cycle is broken: 3 must sit alone.
	if got := len(c.Members(c.CompOf[id3])); got != 1 {
		t.Fatalf("boundary node shares a component of size %d", got)
	}
	if got := len(c.Succs(c.CompOf[id3])); got != 0 {
		t.Fatalf("boundary component has %d out-edges, want 0", got)
	}
}

func TestSortedIterationHelpers(t *testing.T) {
	g, nodes := buildDiamond(t)
	loc := Loc{Alloc: nodes[0], Field: 2}

	collect := func() [][]int {
		var stores, loads, fields []int
		g.StoresOf(loc, func(n *Node) { stores = append(stores, n.In.ID) })
		g.LoadsOf(loc, func(n *Node) { loads = append(loads, n.In.ID) })
		g.FieldsOf(nodes[0], func(field int) { fields = append(fields, field) })
		var locs []Loc
		g.Locs(func(l Loc) { locs = append(locs, l) })
		return [][]int{stores, loads, fields, {len(locs)}}
	}

	// Identical output across repeated calls, and across frozen/unfrozen.
	before := collect()
	g.Freeze()
	after := collect()
	for k := range before {
		if len(before[k]) != len(after[k]) {
			t.Fatalf("helper %d: unfrozen %v vs frozen %v", k, before[k], after[k])
		}
		for i := range before[k] {
			if before[k][i] != after[k][i] {
				t.Fatalf("helper %d: unfrozen %v vs frozen %v", k, before[k], after[k])
			}
		}
	}
	if !sort.IntsAreSorted(before[0]) || !sort.IntsAreSorted(before[1]) {
		t.Fatalf("store/load iteration not sorted: %v / %v", before[0], before[1])
	}
}
