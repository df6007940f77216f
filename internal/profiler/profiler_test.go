package profiler

import (
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/taint"
	"lowutil/internal/testprogs"
)

// run executes prog under a fresh profiler and returns it.
func run(t *testing.T, prog *ir.Program, opts Options) (*Profiler, *interp.Machine) {
	t.Helper()
	p := New(prog, opts)
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p, m
}

// soleNode returns the single graph node of an instruction, failing if the
// instruction has zero or multiple abstractions.
func soleNode(t *testing.T, g *depgraph.Graph, in *ir.Instr) *depgraph.Node {
	t.Helper()
	nodes := g.NodesOf(in)
	if len(nodes) != 1 {
		t.Fatalf("instruction %v has %d nodes, want 1", in, len(nodes))
	}
	return nodes[0]
}

// TestFigure1DoubleCounting reproduces Figure 1: taint-like cumulative
// tracking double-counts the shared sub-computation c, while the dependence
// graph yields the exact instruction count.
func TestFigure1DoubleCounting(t *testing.T) {
	fig := testprogs.Figure1()

	// Slicing-based cost: count each contributing instruction once.
	p, _ := run(t, fig.Prog, Options{Slots: 8})
	bNode := soleNode(t, p.G, fig.BInstr)
	if got := depgraph.AbstractCost(bNode); got != fig.DistinctCost {
		t.Errorf("abstract cost of b = %d, want %d", got, fig.DistinctCost)
	}

	// Taint-like tracking: strictly larger due to double counting.
	tr := taint.New(fig.Prog)
	m2 := interp.New(fig.Prog)
	m2.Tracer = tr
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	// b is still live in main's frame at the end of execution.
	frame := findFrameCost(t, tr, m2, fig)
	if frame <= uint64(fig.DistinctCost) {
		t.Errorf("taint cost of b = %d, want > %d (double counting)", frame, fig.DistinctCost)
	}
}

func findFrameCost(t *testing.T, tr *taint.Tracker, m *interp.Machine, fig *testprogs.Figure1Markers) uint64 {
	t.Helper()
	// Re-run with a tracer that samples b's cost right after it is written.
	var got uint64
	sampler := &sampleTracer{Tracker: tr, instr: fig.BInstr, slot: fig.BSlot, out: &got}
	m2 := interp.New(fig.Prog)
	tr2 := taint.New(fig.Prog)
	sampler.Tracker = tr2
	m2.Tracer = sampler
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// sampleTracer wraps a taint Tracker and samples the tracked cost of one
// local slot right after a given instruction executes.
type sampleTracer struct {
	*taint.Tracker
	instr *ir.Instr
	slot  int
	out   *uint64
}

// Binary samples after an arithmetic instruction, the kind Figure 1's b
// is.
func (s *sampleTracer) Binary(in *ir.Instr, fr *interp.Frame) {
	s.Tracker.Binary(in, fr)
	if in == s.instr {
		*s.out = s.Tracker.CostOf(fr, s.slot)
	}
}

// TestFigure3Shapes checks the qualitative claims of Figure 3(d): the array
// elements have zero benefit (never read), A.t has high cost and low finite
// benefit, and the A allocation site tops the low-utility ranking.
func TestFigure3Shapes(t *testing.T) {
	fig := testprogs.Figure3(50, 40)
	p, _ := run(t, fig.Prog, Options{Slots: 16})
	a := costben.NewAnalysis(p.G)

	arrAllocs := p.G.NodesOf(fig.Prog.AllocSites[fig.SiteArr])
	if len(arrAllocs) != 1 {
		t.Fatalf("array alloc nodes = %d, want 1", len(arrAllocs))
	}
	elemLoc := depgraph.Loc{Alloc: arrAllocs[0], Field: depgraph.ElemField}
	if rab := a.RAB(elemLoc, 1); rab != 0 {
		t.Errorf("RAB(array elements) = %v, want 0 (never read)", rab)
	}
	if rac := a.RAC(elemLoc, 1); rac <= 0 {
		t.Errorf("RAC(array elements) = %v, want > 0", rac)
	}

	aAllocs := p.G.NodesOf(fig.Prog.AllocSites[fig.SiteA])
	if len(aAllocs) != 1 {
		t.Fatalf("A alloc nodes = %d, want 1", len(aAllocs))
	}
	tLoc := depgraph.Loc{Alloc: aAllocs[0], Field: fig.FieldT.ID}
	rac := a.RAC(tLoc, 1)
	rab := a.RAB(tLoc, 1)
	if rac < float64(fig.K) {
		t.Errorf("RAC(A.t) = %v, want >= %d (the expensive loop)", rac, fig.K)
	}
	// HRAB sums frequencies across instances, so the benefit of the
	// load-and-immediately-store idiom is ≈ one node's frequency (N) —
	// far below the cost, which includes the K-iteration inner loop.
	if rab == costben.InfiniteRAB || rab <= 0 || rab > 3*float64(fig.N) {
		t.Errorf("RAB(A.t) = %v, want finite in (0, %d]", rab, 3*fig.N)
	}
	if rac <= rab*float64(fig.K)/4 {
		t.Errorf("cost-benefit imbalance missing: RAC=%v RAB=%v", rac, rab)
	}

	// The A site must rank above the list site in the per-site report.
	ranking := a.RankBySite(costben.DefaultTreeHeight)
	pos := map[int]int{}
	for i, r := range ranking {
		pos[int(r.Site.AllocSite)] = i
	}
	if pos[fig.SiteA] > pos[fig.SiteList] {
		t.Errorf("ranking: site A at %d, list at %d; want A more suspicious", pos[fig.SiteA], pos[fig.SiteList])
	}
}

// TestFigure6LowUtilityList checks the eclipse isPackage idiom: the list
// structure's fields have zero benefit even though the list reference
// itself feeds a predicate.
func TestFigure6LowUtilityList(t *testing.T) {
	fig := testprogs.Figure6(20, 30)
	p, _ := run(t, fig.Prog, Options{Slots: 16})
	a := costben.NewAnalysis(p.G)

	ranking := a.RankBySite(costben.DefaultTreeHeight)
	if len(ranking) == 0 {
		t.Fatal("empty ranking")
	}
	top := ranking[0]
	if site := int(top.Site.AllocSite); site != fig.SiteList && site != fig.SiteArr {
		t.Errorf("top suspicious site = %d, want list (%d) or its array (%d)\n%v",
			top.Site.AllocSite, fig.SiteList, fig.SiteArr, ranking[:min(5, len(ranking))])
	}
	if top.NRAB == costben.InfiniteRAB {
		t.Errorf("top structure has infinite benefit; fields should be unread")
	}
	if top.NRAC <= 0 {
		t.Errorf("top structure cost = %v, want > 0", top.NRAC)
	}
}

// TestThinVsTraditional verifies the ablation premise: traditional slicing
// adds base-pointer dependences, so slices can only grow.
func TestThinVsTraditional(t *testing.T) {
	fig := testprogs.Figure3(20, 10)

	pThin, _ := run(t, fig.Prog, Options{Slots: 16})
	pTrad, _ := run(t, fig.Prog, Options{Slots: 16, Traditional: true})

	if pTrad.G.NumDepEdges() <= pThin.G.NumDepEdges() {
		t.Errorf("traditional edges (%d) should exceed thin edges (%d)",
			pTrad.G.NumDepEdges(), pThin.G.NumDepEdges())
	}

	// Compare slice sizes from the size-store node (a heap store reached
	// through field loads in IntList.add).
	var thinSz, tradSz int
	for _, g := range []*depgraph.Graph{pThin.G, pTrad.G} {
		var total int
		g.Nodes(func(n *depgraph.Node) {
			if n.WritesHeap() {
				total += len(depgraph.BackwardSlice(n))
			}
		})
		if g == pThin.G {
			thinSz = total
		} else {
			tradSz = total
		}
	}
	if tradSz < thinSz {
		t.Errorf("traditional total slice size %d < thin %d", tradSz, thinSz)
	}
}

// TestGraphBounded verifies the central scalability claim: node count is
// bounded by |I| × s regardless of how long the program runs.
func TestGraphBounded(t *testing.T) {
	small := testprogs.Figure3(5, 5)
	big := testprogs.Figure3(500, 50)

	pSmall, mSmall := run(t, small.Prog, Options{Slots: 8})
	pBig, mBig := run(t, big.Prog, Options{Slots: 8})

	if mBig.Steps < 100*mSmall.Steps {
		t.Fatalf("workloads not sufficiently different: %d vs %d", mSmall.Steps, mBig.Steps)
	}
	bound := small.Prog.NumInstrs()*8 + small.Prog.NumInstrs() // contexted + consumer nodes
	if pSmall.G.NumNodes() > bound || pBig.G.NumNodes() > bound {
		t.Errorf("node count exceeds |I|*s bound %d: small=%d big=%d",
			bound, pSmall.G.NumNodes(), pBig.G.NumNodes())
	}
	// Same program: identical abstractions regardless of trip counts.
	if pSmall.G.NumNodes() != pBig.G.NumNodes() {
		t.Logf("note: node counts differ (%d vs %d) — acceptable, frequency differs",
			pSmall.G.NumNodes(), pBig.G.NumNodes())
	}
}

// TestUnabstractedGrowsWithInput verifies the baseline contrast: without
// abstraction the graph grows with the dynamic instruction count.
func TestUnabstractedGrowsWithInput(t *testing.T) {
	small := testprogs.Figure3(5, 5)
	big := testprogs.Figure3(50, 5)
	pSmall, _ := run(t, small.Prog, Options{Unabstracted: true})
	pBig, _ := run(t, big.Prog, Options{Unabstracted: true})
	if pBig.G.NumNodes() <= pSmall.G.NumNodes() {
		t.Errorf("unabstracted graph should grow with input: %d vs %d",
			pSmall.G.NumNodes(), pBig.G.NumNodes())
	}
}

// TestFrequenciesMatchExecution: total graph frequency equals the number of
// value-producing instruction instances (no calls/returns/gotos).
func TestFrequenciesMatchExecution(t *testing.T) {
	fig := testprogs.Figure1()
	p, m := run(t, fig.Prog, Options{Slots: 8})
	// main: const, call(dst), const, mul, add, return-void → nodes for
	// const×2, call-assign, mul, add = 5 instances.
	// f: const, shr, return → const, shr = 2 instances.
	want := int64(7)
	if got := p.G.TotalFreq(); got != want {
		t.Errorf("total freq = %d, want %d", got, want)
	}
	if m.Steps != 9 { // 6 main instrs + 3 f instrs
		t.Errorf("steps = %d, want 9", m.Steps)
	}
}

// TestPhaseGating: a profile over an empty step window must record no
// instance, while the call hooks still run.
func TestPhaseGating(t *testing.T) {
	fig := testprogs.Figure3(50, 20)

	pFull, _ := run(t, fig.Prog, Options{Slots: 8})

	pGated := New(fig.Prog, Options{Slots: 8})
	m := interp.New(fig.Prog)
	m.Tracer = pGated
	m.Window = &interp.StepWindow{}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if pGated.G.TotalFreq() != 0 {
		t.Errorf("gated profiler recorded %d instances, want 0", pGated.G.TotalFreq())
	}
	if pFull.G.TotalFreq() == 0 {
		t.Error("full profiler recorded nothing")
	}
}

// TestReferenceEdges: field stores get reference edges to the base object's
// allocation node, and points-to children are recorded for ref-valued
// stores.
func TestReferenceEdges(t *testing.T) {
	bd := ir.NewBuilder()
	inner := bd.Class("Inner", nil)
	outer := bd.Class("Outer", nil)
	fRef := bd.Field(outer, "inner", bd.RefType(inner))
	cls := bd.Class("Main", nil)
	m := bd.Method(cls, "main", true, 0, nil)
	mb := bd.Body(m)
	mb.New(0, outer)
	mb.New(1, inner)
	storePC := mb.StoreField(0, fRef, 1)
	mb.ReturnVoid()
	prog, err := bd.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := run(t, prog, Options{Slots: 8})

	store := soleNode(t, p.G, &m.Code[storePC])
	outerAlloc := soleNode(t, p.G, &m.Code[0])
	innerAlloc := soleNode(t, p.G, &m.Code[1])

	found := false
	store.RefEdges(func(n *depgraph.Node) {
		if n == outerAlloc {
			found = true
		}
	})
	if !found {
		t.Error("missing reference edge store → outer alloc")
	}

	childFound := false
	p.G.Children(outerAlloc, func(field int, child *depgraph.Node) {
		if field == fRef.ID && child == innerAlloc {
			childFound = true
		}
	})
	if !childFound {
		t.Error("missing points-to child outer.inner → inner alloc")
	}
	if p.G.NumRefEdges() != 1 {
		t.Errorf("ref edges = %d, want 1", p.G.NumRefEdges())
	}
}

// TestContextsSeparateReceivers: with object-sensitive contexts, the same
// method body called on receivers from different allocation sites maps to
// different nodes (when slots don't collide).
func TestContextsSeparateReceivers(t *testing.T) {
	bd := ir.NewBuilder()
	box := bd.Class("Box", nil)
	fv := bd.Field(box, "v", ir.IntType)
	get := bd.Method(box, "get", false, 1, ir.IntType)
	gb := bd.Body(get)
	loadPC := gb.LoadField(1, 0, fv)
	gb.Return(1)

	cls := bd.Class("Main", nil)
	m := bd.Method(cls, "main", true, 0, nil)
	mb := bd.Body(m)
	mb.Const(2, 1)
	mb.New(0, box) // site 0
	mb.StoreField(0, fv, 2)
	mb.Call(3, get, 0)
	mb.New(1, box) // site 1
	mb.StoreField(1, fv, 2)
	mb.Call(3, get, 1)
	mb.ReturnVoid()
	prog, err := bd.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := run(t, prog, Options{Slots: 64})
	nodes := p.G.NodesOf(&get.Code[loadPC])
	if len(nodes) != 2 {
		t.Errorf("load in Box.get has %d abstractions, want 2 (one per receiver site)", len(nodes))
	}
}

// TestCRTracking: with one slot, distinct contexts must conflict (CR → 1);
// with many slots, CR should be 0 here.
func TestCRTracking(t *testing.T) {
	bd := ir.NewBuilder()
	box := bd.Class("Box", nil)
	fv := bd.Field(box, "v", ir.IntType)
	get := bd.Method(box, "get", false, 1, ir.IntType)
	gb := bd.Body(get)
	loadPC := gb.LoadField(1, 0, fv)
	gb.Return(1)
	cls := bd.Class("Main", nil)
	m := bd.Method(cls, "main", true, 0, nil)
	mb := bd.Body(m)
	mb.Const(2, 1)
	mb.New(0, box)
	mb.StoreField(0, fv, 2)
	mb.Call(3, get, 0)
	mb.New(1, box)
	mb.StoreField(1, fv, 2)
	mb.Call(3, get, 1)
	mb.ReturnVoid()
	prog, err := bd.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}

	p1, _ := run(t, prog, Options{Slots: 1, TrackCR: true})
	if cr := p1.CR().CR(int(get.Code[loadPC].ID)); cr != 1.0 {
		t.Errorf("CR with 1 slot = %v, want 1.0", cr)
	}
	p64, _ := run(t, prog, Options{Slots: 64, TrackCR: true})
	if cr := p64.CR().CR(int(get.Code[loadPC].ID)); cr != 0 {
		t.Errorf("CR with 64 slots = %v, want 0", cr)
	}
}

// TestContextChainDepth: contexts are receiver-site *chains*, so the same
// instruction reached through two different two-level ownership paths maps
// to two abstractions even when the immediate receiver's allocation site is
// shared.
func TestContextChainDepth(t *testing.T) {
	bd := ir.NewBuilder()
	inner := bd.Class("Inner", nil)
	fv := bd.Field(inner, "v", ir.IntType)
	compute := bd.Method(inner, "compute", false, 1, ir.IntType)
	cb := bd.Body(compute)
	loadPC := cb.LoadField(1, 0, fv)
	cb.Return(1)

	outer := bd.Class("Outer", nil)
	fInner := bd.Field(outer, "inner", bd.RefType(inner))
	run := bd.Method(outer, "run", false, 1, ir.IntType)
	rb := bd.Body(run)
	rb.LoadField(1, 0, fInner)
	rb.Call(2, compute, 1)
	rb.Return(2)

	mk := func(bd *ir.BodyBuilder, outerSlot int) {
		bd.New(outerSlot, outer)
		bd.New(5, inner)
		bd.Const(6, 1)
		bd.StoreField(5, fv, 6)
		bd.StoreField(outerSlot, fInner, 5)
	}
	mainCls := bd.Class("Main", nil)
	m := bd.Method(mainCls, "main", true, 0, nil)
	mb := bd.Body(m)
	mk(mb, 0) // outer #1 (site A) with shared-site inner
	mk(mb, 1) // outer #2 (site C) — wait: each mk emits its own New instrs
	mb.Call(7, run, 0)
	mb.Call(8, run, 1)
	mb.ReturnVoid()
	prog, err := bd.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog, Options{Slots: 1024})
	vm := interp.New(prog)
	vm.Tracer = p
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	nodes := p.G.NodesOf(&compute.Code[loadPC])
	if len(nodes) != 2 {
		t.Fatalf("compute load has %d abstractions, want 2 (chains differ at the outer level)", len(nodes))
	}
}
