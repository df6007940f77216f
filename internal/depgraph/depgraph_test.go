package depgraph

import (
	"testing"
	"testing/quick"

	"lowutil/internal/ir"
)

// mkProg builds a linear program with n no-op instructions so tests can
// fabricate nodes.
func mkProg(t testing.TB, n int) *ir.Program {
	t.Helper()
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	for i := 0; i < n; i++ {
		mb.Const(0, int64(i))
	}
	mb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestNodeInterningAndFreq(t *testing.T) {
	prog := mkProg(t, 3)
	g := New(prog)
	n1 := g.Touch(prog.Instrs[0], 5)
	n2 := g.Touch(prog.Instrs[0], 5)
	n3 := g.Touch(prog.Instrs[0], 6)
	if n1 != n2 {
		t.Error("same (instr, d) must intern to one node")
	}
	if n1 == n3 {
		t.Error("different d must give different nodes")
	}
	if n1.Freq() != 2 || n3.Freq() != 1 {
		t.Errorf("freqs = %d, %d; want 2, 1", n1.Freq(), n3.Freq())
	}
	if g.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", g.NumNodes())
	}
	if got := g.Lookup(prog.Instrs[0], 5); got != n1 {
		t.Error("Lookup failed")
	}
	if got := g.Lookup(prog.Instrs[1], 5); got != nil {
		t.Error("Lookup invented a node")
	}
}

func TestEdgeDedup(t *testing.T) {
	prog := mkProg(t, 2)
	g := New(prog)
	a := g.Touch(prog.Instrs[0], 0)
	b := g.Touch(prog.Instrs[1], 0)
	for i := 0; i < 10; i++ {
		g.AddDep(a, b)
	}
	if g.NumDepEdges() != 1 {
		t.Errorf("NumDepEdges = %d, want 1 (dedup)", g.NumDepEdges())
	}
	if a.NumDeps() != 1 || b.NumUses() != 1 {
		t.Errorf("degrees wrong: deps=%d uses=%d", a.NumDeps(), b.NumUses())
	}
	g.AddDep(a, nil) // nil-safe
	g.AddDep(nil, b)
	if g.NumDepEdges() != 1 {
		t.Error("nil edges counted")
	}
}

// chainGraph builds a linear dependence chain n0 ← n1 ← … ← n_{k-1}
// (each later node depends on the previous), with given frequencies.
func chainGraph(t testing.TB, freqs []int64) (*Graph, []*Node) {
	prog := mkProg(t, len(freqs))
	g := New(prog)
	nodes := make([]*Node, len(freqs))
	for i := range freqs {
		nodes[i] = g.Node(prog.Instrs[i], 0)
		nodes[i].SetFreq(freqs[i])
		if i > 0 {
			g.AddDep(nodes[i], nodes[i-1])
		}
	}
	return g, nodes
}

func TestAbstractCostChain(t *testing.T) {
	_, nodes := chainGraph(t, []int64{1, 2, 3, 4})
	if got := AbstractCost(nodes[3]); got != 10 {
		t.Errorf("AbstractCost = %d, want 10", got)
	}
	if got := AbstractCost(nodes[0]); got != 1 {
		t.Errorf("AbstractCost(first) = %d, want 1", got)
	}
}

func TestAbstractCostSharedSubgraphCountsOnce(t *testing.T) {
	// b depends on c and d; both depend on shared s. s must count once.
	prog := mkProg(t, 4)
	g := New(prog)
	s := g.Node(prog.Instrs[0], 0)
	c := g.Node(prog.Instrs[1], 0)
	d := g.Node(prog.Instrs[2], 0)
	b := g.Node(prog.Instrs[3], 0)
	for _, n := range []*Node{s, c, d, b} {
		n.SetFreq(1)
	}
	g.AddDep(c, s)
	g.AddDep(d, s)
	g.AddDep(b, c)
	g.AddDep(b, d)
	if got := AbstractCost(b); got != 4 {
		t.Errorf("AbstractCost = %d, want 4 (no double counting)", got)
	}
}

func TestAbstractCostCycleTerminates(t *testing.T) {
	g, nodes := chainGraph(t, []int64{1, 1, 1})
	// close a cycle
	g.AddDep(nodes[0], nodes[2])
	if got := AbstractCost(nodes[2]); got != 3 {
		t.Errorf("AbstractCost over cycle = %d, want 3", got)
	}
}

func TestHRACStopsAtHeapReads(t *testing.T) {
	// load (heap read) ← comp1 ← comp2 ← store
	prog := mkProgWithOps(t)
	g := New(prog)
	load := g.Node(findOp(prog, ir.OpLoadField), 0)
	comp1 := g.Node(findNthOp(prog, ir.OpBin, 0), 0)
	comp2 := g.Node(findNthOp(prog, ir.OpBin, 1), 0)
	store := g.Node(findOp(prog, ir.OpStoreField), 0)
	load.Eff = EffLoad
	store.Eff = EffStore
	load.SetFreq(100)
	comp1.SetFreq(7)
	comp2.SetFreq(9)
	store.SetFreq(3)
	g.AddDep(comp1, load)
	g.AddDep(comp2, comp1)
	g.AddDep(store, comp2)
	if got := HRAC(store); got != 3+9+7 {
		t.Errorf("HRAC = %d, want 19 (load excluded)", got)
	}
	if got := AbstractCost(store); got != 3+9+7+100 {
		t.Errorf("AbstractCost = %d, want 119 (load included)", got)
	}
}

func TestHRABStopsAtHeapWritesAndFlagsConsumers(t *testing.T) {
	prog := mkProgWithOps(t)
	g := New(prog)
	load := g.Node(findOp(prog, ir.OpLoadField), 0)
	comp := g.Node(findNthOp(prog, ir.OpBin, 0), 0)
	store := g.Node(findOp(prog, ir.OpStoreField), 0)
	load.Eff = EffLoad
	store.Eff = EffStore
	load.SetFreq(5)
	comp.SetFreq(2)
	store.SetFreq(50)
	g.AddDep(comp, load) // load used by comp
	g.AddDep(store, comp)
	sum, consumed := HRAB(load)
	if sum != 5+2 {
		t.Errorf("HRAB = %d, want 7 (store excluded)", sum)
	}
	if consumed {
		t.Error("no consumer reached, flag should be false")
	}

	// Now route the load into a predicate.
	pred := g.Node(findOp(prog, ir.OpIf), NoContext)
	pred.SetFreq(10)
	g.AddDep(pred, load)
	sum, consumed = HRAB(load)
	if !consumed {
		t.Error("consumer flag missing")
	}
	if sum != 5+2+10 {
		t.Errorf("HRAB = %d, want 17", sum)
	}
}

// mkProgWithOps builds a program containing one instance of each op the
// tests need.
func mkProgWithOps(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	f := b.Field(cls, "x", ir.IntType)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.New(0, cls)
	mb.Const(1, 1)
	mb.StoreField(0, f, 1)
	mb.LoadField(2, 0, f)
	mb.Bin(3, ir.Add, 2, 1)
	mb.Bin(4, ir.Mul, 3, 1)
	mb.If(4, ir.Gt, 1, 7)
	mb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func findOp(prog *ir.Program, op ir.Op) *ir.Instr { return findNthOp(prog, op, 0) }

func findNthOp(prog *ir.Program, op ir.Op, n int) *ir.Instr {
	for _, in := range prog.Instrs {
		if in.Op == op {
			if n == 0 {
				return in
			}
			n--
		}
	}
	return nil
}

func TestSCCChain(t *testing.T) {
	g, nodes := chainGraph(t, []int64{1, 1, 1, 1})
	comps, compOf := scc(g)
	if len(comps) != 4 {
		t.Fatalf("comps = %d, want 4", len(comps))
	}
	// Reverse topological over def→use: uses come earlier. Edges here are
	// nodes[i] depends on nodes[i-1], i.e. def→use goes i-1 → i. So
	// nodes[3] (the final use) must be in an earlier component than
	// nodes[0].
	if compOf[nodes[3]] >= compOf[nodes[0]] {
		t.Errorf("topological order wrong: comp(%d) vs comp(%d)", compOf[nodes[3]], compOf[nodes[0]])
	}
}

func TestSCCCycleMerges(t *testing.T) {
	prog := mkProg(t, 3)
	g := New(prog)
	a := g.Node(prog.Instrs[0], 0)
	b := g.Node(prog.Instrs[1], 0)
	c := g.Node(prog.Instrs[2], 0)
	g.AddDep(a, b)
	g.AddDep(b, a) // cycle a ↔ b
	g.AddDep(c, a) // c depends on a: def→use edge a → c
	comps, compOf := scc(g)
	if len(comps) != 2 {
		t.Fatalf("comps = %d, want 2", len(comps))
	}
	if compOf[a] != compOf[b] {
		t.Error("cycle not merged")
	}
	if compOf[c] == compOf[a] {
		t.Error("c merged erroneously")
	}
}

// Property: for random DAG-ish graphs, every def→use edge goes from a
// higher-index component to a lower one (Tarjan reverse-topological).
func TestSCCOrderProperty(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 12
		prog := mkProg(t, n)
		g := New(prog)
		nodes := make([]*Node, n)
		for i := 0; i < n; i++ {
			nodes[i] = g.Node(prog.Instrs[i], 0)
		}
		for _, e := range edges {
			from := int(e>>8) % n
			to := int(e&0xff) % n
			if from != to {
				g.AddDep(nodes[from], nodes[to])
			}
		}
		_, compOf := scc(g)
		ok := true
		for _, nd := range nodes {
			nd.Uses(func(u *Node) {
				// def→use edge nd → u: u's component must not come after.
				if compOf[u] > compOf[nd] {
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLocTracking(t *testing.T) {
	prog := mkProgWithOps(t)
	g := New(prog)
	alloc := g.Node(findOp(prog, ir.OpNew), 0)
	store := g.Node(findOp(prog, ir.OpStoreField), 0)
	load := g.Node(findOp(prog, ir.OpLoadField), 0)
	loc := Loc{Alloc: alloc, Field: 0}
	g.AddLocStore(loc, store)
	g.AddLocLoad(loc, load)
	g.AddLocStore(loc, store) // dedup

	nStores := 0
	g.StoresOf(loc, func(*Node) { nStores++ })
	if nStores != 1 {
		t.Errorf("stores = %d, want 1", nStores)
	}
	fields := 0
	g.FieldsOf(alloc, func(int) { fields++ })
	if fields != 1 {
		t.Errorf("fields = %d, want 1", fields)
	}
	locs := 0
	g.Locs(func(Loc) { locs++ })
	if locs != 1 {
		t.Errorf("locs = %d, want 1", locs)
	}
}

func TestApproxBytesGrows(t *testing.T) {
	prog := mkProg(t, 10)
	g := New(prog)
	base := g.ApproxBytes()
	for i := 0; i < 10; i++ {
		g.Touch(prog.Instrs[i], 0)
	}
	if g.ApproxBytes() <= base {
		t.Error("ApproxBytes did not grow with nodes")
	}
}
