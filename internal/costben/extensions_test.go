package costben

import (
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/profiler"
)

// TestMultiHopCostCrossesHeapBoundaries: with hops=1 the expensive producer
// hidden behind a heap load is excluded (the single-hop shortsightedness the
// paper describes); with hops=2 it is included.
func TestMultiHopCostCrossesHeapBoundaries(t *testing.T) {
	p, _, prog := profiled(t, `
class A { int x; }
class B { int y; }
class Main {
  static void main() {
    A a = new A();
    a.x = expensive(500);
    B b = new B();
    b.y = a.x + 1;        // one cheap hop away from the 500-loop
    print(b.y);
  }
  static int expensive(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
  }
}`, 16)
	an := NewAnalysis(p.G)
	bAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "B", 0))
	var fy *ir.Field
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			if f.Name == "y" {
				fy = f
			}
		}
	}
	loc := depgraph.Loc{Alloc: bAlloc, Field: fy.ID}

	oneHop := an.RAC(loc, 1)
	twoHop := an.RAC(loc, 2)
	if oneHop >= 500 {
		t.Errorf("one-hop cost %v should exclude the 500-loop", oneHop)
	}
	if twoHop < 500 {
		t.Errorf("two-hop cost %v should include the 500-loop", twoHop)
	}
	if an.RAC(loc, 3) < twoHop {
		t.Errorf("cost must be monotone in hops")
	}
}

// TestMultiHopBenefitSeesThroughStores: a value copied into an intermediate
// structure and then consumed has trivial one-hop benefit but real two-hop
// benefit — the paper's "ultimately-dead … considered appropriately used
// because it is indeed involved in complex computations within the one hop"
// issue, inverted.
func TestMultiHopBenefitSeesThroughStores(t *testing.T) {
	p, _, prog := profiled(t, `
class A { int x; }
class B { int y; }
class Main {
  static void main() {
    A a = new A();
    a.x = 7;
    B b = new B();
    int t = a.x;
    b.y = t;              // one-hop benefit of a.x ends here
    int u = b.y;
    int v = u * 3 + 1;    // two-hop benefit includes this
    int w = v * v;
    print(w);
  }
}`, 16)
	an := NewAnalysis(p.G)
	aAlloc := allocNode(t, p, prog, siteOfNthNew(prog, "A", 0))
	var fx *ir.Field
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			if f.Name == "x" {
				fx = f
			}
		}
	}
	loc := depgraph.Loc{Alloc: aAlloc, Field: fx.ID}
	oneHop := an.RAB(loc, 1)
	twoHop := an.RAB(loc, 2)
	if oneHop == InfiniteRAB {
		t.Fatalf("one-hop benefit should be finite (value parked in b.y)")
	}
	if twoHop != InfiniteRAB {
		t.Errorf("two-hop benefit should reach print and be infinite, got %v", twoHop)
	}
}

// TestCacheEffectiveness: a memo table reused many times is an effective
// cache; the same table written per request and read once is not.
func TestCacheEffectiveness(t *testing.T) {
	p, _, prog := profiled(t, `
class Memo { int[] vals; }
class Main {
  static int compute(int k) {
    int s = 0;
    for (int i = 0; i < 100; i = i + 1) { s = s + i * k; }
    return s;
  }
  static void main() {
    Memo good = new Memo();
    good.vals = new int[4];
    // Fill once (4 stores), read many times (200 loads).
    for (int k = 0; k < 4; k = k + 1) { good.vals[k] = compute(k); }
    int acc = 0;
    for (int r = 0; r < 50; r = r + 1) {
      for (int k = 0; k < 4; k = k + 1) { acc = acc + good.vals[k]; }
    }

    Memo bad = new Memo();
    bad.vals = new int[4];
    // Written on every round, read once at the end.
    for (int r = 0; r < 50; r = r + 1) {
      for (int k = 0; k < 4; k = k + 1) { bad.vals[k] = compute(k + r); }
    }
    acc = acc + bad.vals[0];
    print(acc);
  }
}`, 16)
	an := NewAnalysis(p.G)
	goodAlloc := p.G.NodesOf(prog.AllocSites[siteOfNthNewArray(prog, 0)])
	badAlloc := p.G.NodesOf(prog.AllocSites[siteOfNthNewArray(prog, 1)])
	if len(goodAlloc) != 1 || len(badAlloc) != 1 {
		t.Fatalf("alloc nodes: %d, %d", len(goodAlloc), len(badAlloc))
	}
	goodLoc := depgraph.Loc{Alloc: goodAlloc[0], Field: depgraph.ElemField}
	badLoc := depgraph.Loc{Alloc: badAlloc[0], Field: depgraph.ElemField}

	good := an.CacheAnalysis(goodLoc)
	bad := an.CacheAnalysis(badLoc)

	if good.Stores != 4 || good.Loads != 200 {
		t.Errorf("good cache counts: %d stores, %d loads", good.Stores, good.Loads)
	}
	if bad.Stores != 200 || bad.Loads != 1 {
		t.Errorf("bad cache counts: %d stores, %d loads", bad.Stores, bad.Loads)
	}
	if good.Effectiveness() <= 1 {
		t.Errorf("good cache effectiveness = %v, want > 1\n%v", good.Effectiveness(), good)
	}
	if bad.Effectiveness() >= 0.5 {
		t.Errorf("bad cache effectiveness = %v, want < 0.5\n%v", bad.Effectiveness(), bad)
	}
	if good.Effectiveness() <= 10*bad.Effectiveness() {
		t.Errorf("separation too weak: good %v vs bad %v", good.Effectiveness(), bad.Effectiveness())
	}
}

func siteOfNthNewArray(prog *ir.Program, n int) int {
	for _, in := range prog.Instrs {
		if in.Op == ir.OpNewArray {
			if n == 0 {
				return int(in.AllocSite)
			}
			n--
		}
	}
	return -1
}

// TestControlTrackingIncludesPredicateCost: with TrackControl, values
// computed under a condition inherit the cost of deciding it.
func TestControlTrackingIncludesPredicateCost(t *testing.T) {
	src := `
class B { int y; }
class Main {
  static void main() {
    B b = new B();
    int guard = 0;
    for (int i = 0; i < 200; i = i + 1) { guard = guard + i; }  // decision work
    if (guard > 10) {
      b.y = 5;           // cheap value under an expensive decision
    }
    print(b.y);
  }
}`
	costWith := func(control bool) float64 {
		prog, err := mjcCompile(t, src)
		if err != nil {
			t.Fatal(err)
		}
		p := profiler.New(prog, profiler.Options{Slots: 16, TrackControl: control})
		m := interp.New(prog)
		m.Tracer = p
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(p.G)
		var loc depgraph.Loc
		p.G.Locs(func(l depgraph.Loc) {
			if l.Alloc != nil && l.Field >= 0 {
				loc = l
			}
		})
		return an.RAC(loc, 1)
	}
	ignoring := costWith(false)
	considering := costWith(true)
	if ignoring >= 100 {
		t.Errorf("without control tracking, RAC(b.y) = %v should exclude the guard loop", ignoring)
	}
	if considering < 200 {
		t.Errorf("with control tracking, RAC(b.y) = %v should include the guard loop", considering)
	}
}

func mjcCompile(t *testing.T, src string) (*ir.Program, error) {
	t.Helper()
	return compileSrc(src)
}
