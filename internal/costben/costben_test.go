package costben

import (
	"math"
	"strings"
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
)

// compileSrc is a test helper shared with extensions_test.go.
func compileSrc(src string) (*ir.Program, error) { return mjc.Compile(src) }

func profiled(t *testing.T, src string, slots int) (*profiler.Profiler, *interp.Machine, *ir.Program) {
	t.Helper()
	prog, err := mjc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p := profiler.New(prog, profiler.Options{Slots: slots})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p, m, prog
}

func siteOfNthNew(prog *ir.Program, class string, n int) int {
	for _, in := range prog.Instrs {
		if in.Op == ir.OpNew && in.Class.Name == class {
			if n == 0 {
				return in.AllocSite
			}
			n--
		}
	}
	return -1
}

func allocNode(t *testing.T, p *profiler.Profiler, prog *ir.Program, site int) *depgraph.Node {
	t.Helper()
	nodes := p.G.NodesOf(prog.AllocSites[site])
	if len(nodes) != 1 {
		t.Fatalf("site %d has %d nodes, want 1", site, len(nodes))
	}
	return nodes[0]
}

// TestHopSemanticsSingleHop pins the exact RAC of a single-hop flow:
// read a.x (heap), three stack computations, write b.y. RAC(b.y) counts the
// store plus the three computations, not the load or anything before it.
func TestHopSemanticsSingleHop(t *testing.T) {
	p, _, prog := profiled(t, `
class A { int x; }
class B { int y; }
class Main {
  static void main() {
    A a = new A();
    a.x = expensive(400);
    B b = new B();
    int t1 = a.x + 1;   // hop work 1 (+ the load, excluded)
    int t2 = t1 * 2;    // hop work 2
    int t3 = t2 - 3;    // hop work 3
    b.y = t3;           // the store
    print(b.y);
  }
  static int expensive(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
  }
}`, 16)
	a := NewAnalysis(p.G)
	bSite := siteOfNthNew(prog, "B", 0)
	bAlloc := allocNode(t, p, prog, bSite)
	var fy *ir.Field
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			if f.Name == "y" {
				fy = f
			}
		}
	}
	loc := depgraph.Loc{Alloc: bAlloc, Field: fy.ID}
	rac := a.RAC(loc, 1)
	// Hop work: the three Bin instructions plus their constant operands
	// (1, 2, 3 — each a Const node feeding the hop) plus the store itself.
	// Crucially, the 400-iteration expensive() work must NOT appear: it is
	// behind the heap location a.x.
	if rac < 4 || rac > 12 {
		t.Errorf("RAC(b.y) = %v, want a one-hop cost in [4, 12]", rac)
	}
	// The benefit: b.y is loaded once and printed (a native consumer), so
	// RAB must be infinite.
	if rab := a.RAB(loc, 1); rab != InfiniteRAB {
		t.Errorf("RAB(b.y) = %v, want infinite (reaches print)", rab)
	}
}

// TestRACIncludesExpensiveComputationWithinHop: when the expensive
// computation happens on the stack inside the hop, it IS the cost.
func TestRACIncludesExpensiveComputationWithinHop(t *testing.T) {
	p, _, prog := profiled(t, `
class B { int y; }
class Main {
  static void main() {
    B b = new B();
    int s = 0;
    for (int i = 0; i < 300; i = i + 1) { s = s + i; }
    b.y = s;          // the whole loop is this hop's stack work
    print(1);
  }
}`, 16)
	a := NewAnalysis(p.G)
	bAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "B", 0))
	var fy *ir.Field
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			if f.Name == "y" {
				fy = f
			}
		}
	}
	rac := a.RAC(depgraph.Loc{Alloc: bAlloc, Field: fy.ID}, 1)
	if rac < 300 {
		t.Errorf("RAC = %v, want >= 300 (the loop)", rac)
	}
}

// TestRABCopyOnlyIsMinimal: "in the extreme case where v' is simply a copy
// of v, the RAB for l is 1" — per node frequency. A field copied to another
// field once per construction has RAB ≈ load frequency.
func TestRABCopyOnlyIsMinimal(t *testing.T) {
	p, _, prog := profiled(t, `
class A { int x; }
class B { int y; }
class Main {
  static void main() {
    A a = new A();
    B b = new B();
    a.x = 5;
    b.y = a.x;        // single load, value stored straight into b.y
    print(1);
  }
}`, 16)
	a := NewAnalysis(p.G)
	aAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "A", 0))
	var fx *ir.Field
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			if f.Name == "x" {
				fx = f
			}
		}
	}
	rab := a.RAB(depgraph.Loc{Alloc: aAlloc, Field: fx.ID}, 1)
	if rab != 1 {
		t.Errorf("RAB of copy-only field = %v, want exactly 1", rab)
	}
}

func TestUnreadLocationRABZeroAndUnwrittenRACZero(t *testing.T) {
	p, _, prog := profiled(t, `
class A { int w; int r; }
class Main {
  static void main() {
    A a = new A();
    a.w = 3;          // written, never read
    print(a.r);       // read, never written
  }
}`, 16)
	an := NewAnalysis(p.G)
	aAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "A", 0))
	var fw, fr *ir.Field
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			switch f.Name {
			case "w":
				fw = f
			case "r":
				fr = f
			}
		}
	}
	if rab := an.RAB(depgraph.Loc{Alloc: aAlloc, Field: fw.ID}, 1); rab != 0 {
		t.Errorf("RAB(unread) = %v, want 0", rab)
	}
	if rac := an.RAC(depgraph.Loc{Alloc: aAlloc, Field: fr.ID}, 1); rac != 0 {
		t.Errorf("RAC(unwritten) = %v, want 0", rac)
	}
}

// TestObjectTreeDepths: a 3-level structure (Outer → Mid → Leaf) yields
// correct tree depths and n-RAC aggregation grows with n.
func TestObjectTreeDepthsAndNRAC(t *testing.T) {
	p, _, prog := profiled(t, `
class Leaf { int v; }
class Mid { Leaf leaf; int m; }
class Outer { Mid mid; int o; }
class Main {
  static void main() {
    Outer outer = new Outer();
    Mid mid = new Mid();
    Leaf leaf = new Leaf();
    leaf.v = costly(50);
    mid.m = costly(60);
    mid.leaf = leaf;
    outer.o = costly(70);
    outer.mid = mid;
  }
  static int costly(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i * i; }
    return s;
  }
}`, 16)
	a := NewAnalysis(p.G)
	outerAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "Outer", 0))
	midAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "Mid", 0))
	leafAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "Leaf", 0))

	tree := objectTree(p.G, outerAlloc, 4)
	if tree[outerAlloc] != 0 || tree[midAlloc] != 1 || tree[leafAlloc] != 2 {
		t.Errorf("depths = %v", tree)
	}

	r1 := a.NRAC(outerAlloc, 1, 1)
	r2 := a.NRAC(outerAlloc, 2, 1)
	r3 := a.NRAC(outerAlloc, 3, 1)
	if !(r1 > 0 && r2 > r1 && r3 > r2) {
		t.Errorf("n-RAC must grow with n: %v %v %v", r1, r2, r3)
	}
	// 1-RAC covers only Outer's own fields (o and mid); the leaf's 50-loop
	// must not be included until n >= 3.
	if r1 >= r3 {
		t.Errorf("1-RAC (%v) should be < 3-RAC (%v)", r1, r3)
	}
}

func TestObjectTreeCycleSafe(t *testing.T) {
	p, _, prog := profiled(t, `
class Node { Node next; int v; }
class Main {
  static void main() {
    Node a = new Node();
    Node b = new Node();
    a.next = b;
    b.next = a;  // cycle
    a.v = 1;
  }
}`, 16)
	an := NewAnalysis(p.G)
	aAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "Node", 0))
	tree := objectTree(p.G, aAlloc, 10)
	if len(tree) != 2 {
		t.Errorf("cycle tree size = %d, want 2", len(tree))
	}
	// And aggregation must terminate with a finite number.
	if v := an.NRAC(aAlloc, 10, 1); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("NRAC over cycle = %v", v)
	}
}

func TestRateSemantics(t *testing.T) {
	if Rate(100, InfiniteRAB) != 0 {
		t.Error("infinite benefit must zero the rate")
	}
	if Rate(100, 0) != 100 {
		t.Error("zero benefit clamps to 1")
	}
	if Rate(100, 4) != 25 {
		t.Error("plain ratio broken")
	}
}

func TestRankBySiteIsStable(t *testing.T) {
	p, _, _ := profiled(t, `
class A { int x; }
class Main {
  static void main() {
    A a = new A();
    a.x = 1;
  }
}`, 16)
	an := NewAnalysis(p.G)
	r1, r2 := an.RankBySite(4), an.RankBySite(4)
	if len(r1) == 0 || len(r1) != len(r2) {
		t.Fatalf("rankings of %d and %d sites, want the same non-zero length", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].String() != r2[i].String() {
			t.Errorf("rank %d not deterministic: %s vs %s", i+1, r1[i], r2[i])
		}
	}
}

// TestContextSensitivitySeparatesSameSite demonstrates why object contexts
// matter: the same allocation site, reached through two different receiver
// objects, splits into two abstractions — one high-utility (its values are
// consumed), one low-utility (its values die). A context-insensitive
// analysis would merge them and dilute the signal.
func TestContextSensitivitySeparatesSameSite(t *testing.T) {
	p, _, prog := profiled(t, `
class Cell { int v; }
class Holder {
  Cell cell;
  void fill(int x) {
    Cell c = new Cell();     // ONE static site, two receiver contexts
    c.v = x * x + 3;
    this.cell = c;
  }
  int read() { return this.cell.v; }
}
class Main {
  static void main() {
    Holder used = new Holder();
    Holder wasted = new Holder();
    int acc = 0;
    for (int i = 0; i < 60; i = i + 1) {
      used.fill(i);
      acc = acc + used.read();   // used's cells are consumed
      wasted.fill(i + 1);        // wasted's cells never read
    }
    print(acc);
  }
}`, 256)
	cellSite := siteOfNthNew(prog, "Cell", 0)
	nodes := p.G.NodesOf(prog.AllocSites[cellSite])
	if len(nodes) != 2 {
		t.Fatalf("Cell site has %d abstractions, want 2 (one per receiver context)", len(nodes))
	}
	an := NewAnalysis(p.G)
	// One abstraction's cell values flow to print (consumed — large
	// benefit), the other's die (zero benefit): the context split separates
	// them exactly.
	var benefits []float64
	for _, n := range nodes {
		b, _ := an.NRAB(n, DefaultTreeHeight, 1)
		benefits = append(benefits, b)
	}
	hasConsumed, hasZero := false, false
	for _, b := range benefits {
		if b >= ConsumedRAB {
			hasConsumed = true
		}
		if b == 0 {
			hasZero = true
		}
	}
	if !hasConsumed || !hasZero {
		t.Errorf("contexts not separated: benefits = %v", benefits)
	}
	// The context-level ranking puts the dead abstraction strictly above
	// the live one.
	ranked := an.RankStructures(DefaultTreeHeight, 1)
	var first *StructureReport
	for _, r := range ranked {
		if r.Site.AllocSite == cellSite {
			first = r
			break
		}
	}
	if first == nil || first.NRAB != 0 {
		t.Errorf("dead-context abstraction should rank first among Cell entries: %v", first)
	}
}

// TestFigure3AbstractCosts regenerates the Figure 3(c) artifact: node
// frequencies and abstract costs for the hot method, checking the exact
// frequency structure and the ab-initio growth property (later nodes cost
// at least as much as what they depend on).
func TestFigure3AbstractCosts(t *testing.T) {
	const n, k = 10, 7
	p, _, prog := profiled(t, `
class A { int t; }
class Main {
  static void main() {
    for (int i = 0; i < `+"10"+`; i = i + 1) {
      A a = new A();
      int s = 0;
      for (int j = 0; j < `+"7"+`; j = j + 1) { s = s + i * j; }
      a.t = s;
    }
  }
}`, 16)
	rows := MethodNodeCosts(p.G, prog.Main)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	table := FormatNodeCosts(rows)
	if !strings.Contains(table, "Freq") || !strings.Contains(table, "AC") {
		t.Errorf("table malformed:\n%s", table)
	}
	// Frequencies: the alloc runs n times; the inner-loop add runs n*k.
	var allocFreq, innerFreq int64
	for _, r := range rows {
		if r.Node.In.IsAlloc() {
			allocFreq = r.Freq
		}
		if r.Freq == n*k {
			innerFreq = r.Freq
		}
		// Abstract cost is always at least the node's own frequency.
		if r.AbstractCost < r.Freq {
			t.Errorf("AC < freq for %v: %d < %d", r.Node, r.AbstractCost, r.Freq)
		}
	}
	if allocFreq != n {
		t.Errorf("alloc freq = %d, want %d", allocFreq, n)
	}
	if innerFreq != n*k {
		t.Errorf("no node with inner-loop frequency %d", n*k)
	}
	// The store a.t = s must have a larger abstract cost than the constant
	// initializing s (the ab initio accumulation the paper describes).
	var constAC, storeAC int64
	for _, r := range rows {
		if r.Node.In.Op == ir.OpConst && r.Node.In.Imm == 0 && constAC == 0 {
			constAC = r.AbstractCost
		}
		if r.Node.WritesHeap() {
			storeAC = r.AbstractCost
		}
	}
	if storeAC <= constAC {
		t.Errorf("store AC (%d) should exceed const AC (%d)", storeAC, constAC)
	}
}

// TestPointerCostAttribution pins the §1 motivation for thin slicing:
// "Consider b.f = g(a.f) … a dynamic slicing approach would also include
// the cost of computing the a pointer. … had there existed another
// assignment c.g = a, c would be the object to which a's cost should be
// attributed, not b."
//
// Here the pointer a is expensive to compute (a 300-iteration index search)
// while the value a.f is cheap. Under thin slicing, b.f's cost excludes the
// pointer computation; under traditional slicing it absorbs it; and c.g —
// which stores the pointer itself — carries the pointer cost in both modes.
func TestPointerCostAttribution(t *testing.T) {
	src := `
class A { int f; }
class B { int f; }
class C { A g; }
class Main {
  static A pick(A[] pool) {
    int idx = 0;
    for (int i = 0; i < 300; i = i + 1) {   // expensive pointer computation
      idx = (idx * 7 + i) % pool.length;
    }
    return pool[idx];
  }
  static void main() {
    A[] pool = new A[4];
    for (int i = 0; i < pool.length; i = i + 1) {
      A x = new A();
      x.f = i;
      pool[i] = x;
    }
    A a = Main.pick(pool);     // a's POINTER is expensive, a.f is cheap
    B b = new B();
    b.f = a.f + 1;             // value flow: should not pay for the pointer
    C c = new C();
    c.g = a;                   // pointer flow: SHOULD pay for the pointer
  }
}`
	// The §1 argument is about *slices* (total transitive cost), so measure
	// the abstract cost of the two stores — the frequency-weighted backward
	// slice — rather than the one-hop RAC.
	type result struct{ bf, cg int64 }
	measure := func(traditional bool) result {
		prog, err := compileSrc(src)
		if err != nil {
			t.Fatal(err)
		}
		p := profiler.New(prog, profiler.Options{Slots: 16, Traditional: traditional})
		m := interp.New(prog)
		m.Tracer = p
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(p.G)
		bAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "B", 0))
		cAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "C", 0))
		var bField, cField *ir.Field
		for _, cls := range prog.Classes {
			for _, f := range cls.Fields {
				if cls.Name == "B" && f.Name == "f" {
					bField = f
				}
				if cls.Name == "C" && f.Name == "g" {
					cField = f
				}
			}
		}
		storeCost := func(loc depgraph.Loc) int64 {
			var cost int64
			an.G.StoresOf(loc, func(n *depgraph.Node) {
				cost = depgraph.AbstractCost(n)
			})
			return cost
		}
		return result{
			bf: storeCost(depgraph.Loc{Alloc: bAlloc, Field: bField.ID}),
			cg: storeCost(depgraph.Loc{Alloc: cAlloc, Field: cField.ID}),
		}
	}

	thin := measure(false)
	trad := measure(true)

	if thin.bf >= 300 {
		t.Errorf("thin slice cost of b.f = %v: the pointer computation leaked into the value cost", thin.bf)
	}
	if trad.bf < 300 {
		t.Errorf("traditional slice cost of b.f = %v: should absorb the 300-iteration pointer search", trad.bf)
	}
	if thin.cg < 300 {
		t.Errorf("thin slice cost of c.g = %v: storing the pointer should carry the pointer cost", thin.cg)
	}
	if thin.bf >= thin.cg {
		t.Errorf("attribution inverted: cost(b.f)=%v should be far below cost(c.g)=%v", thin.bf, thin.cg)
	}
}
