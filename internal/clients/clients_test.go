package clients

import (
	"strings"
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := mjc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// TestNullPropagationFigure2a reproduces Figure 2(a): a null created in one
// place flows through field copies and is dereferenced far away; the client
// must name the creation site and the flow.
func TestNullPropagationFigure2a(t *testing.T) {
	prog := compile(t, `
class A { A f; int g; }
class Main {
  static void main() {
    A a1 = new A();      // a1.f left null by the constructor
    A b = a1.f;          // b = null        (line 6)
    A c = b;             // c = null        (line 7)
    A a2 = new A();
    a2.f = c;            // a2.f = null
    A e = a2.f;          // e = null
    int h = e.g + 1;     // NPE: e is null  (deref at line 11)
  }
}`)
	nt := NewNullTracker(prog)
	m := interp.New(prog)
	m.Tracer = nt
	err := m.Run()
	if err == nil {
		t.Fatal("expected an NPE")
	}
	rep, ok := nt.Diagnose(err)
	if !ok {
		t.Fatalf("Diagnose failed for %v", err)
	}
	// The origin must be the load of a1.f (the first instruction that
	// produced the null into the flow) — a getfield in Main.main.
	if rep.Origin.Op != ir.OpLoadField {
		t.Errorf("origin = %v, want the a1.f load", rep.Origin)
	}
	if len(rep.Flow) < 3 {
		t.Errorf("flow too short: %d nodes\n%s", len(rep.Flow), rep)
	}
	if rep.Deref.Method.QualifiedName() != "Main.main" {
		t.Errorf("deref in %s", rep.Deref.Method.QualifiedName())
	}
	s := rep.String()
	if !strings.Contains(s, "null created at") || !strings.Contains(s, "dereferenced at") {
		t.Errorf("report misses sections:\n%s", s)
	}
}

func TestNullDiagnoseOnCallReceiver(t *testing.T) {
	prog := compile(t, `
class A { int run() { return 1; } }
class Main {
  static void main() {
    A a = null;
    int x = a.run();
  }
}`)
	nt := NewNullTracker(prog)
	m := interp.New(prog)
	m.Tracer = nt
	err := m.Run()
	rep, ok := nt.Diagnose(err)
	if !ok {
		t.Fatalf("Diagnose failed: %v", err)
	}
	if rep.Origin.Op != ir.OpConst || !rep.Origin.IsNull {
		t.Errorf("origin = %v, want the null constant", rep.Origin)
	}
}

// TestTypestateFigure2b reproduces Figure 2(b): a File protocol
// (uninitialized → open → closed) violated by reading after close.
func TestTypestateFigure2b(t *testing.T) {
	prog := compile(t, `
class File {
  int state;
  void create() { this.state = 1; }
  void put(int b) { this.state = this.state; }
  void close() { this.state = 2; }
  int get() { return 7; }
}
class Main {
  static void main() {
    File f = new File();
    f.create();
    f.put(1);
    f.put(2);
    f.close();
    int b = f.get();   // protocol violation: read after close
    print(b);
  }
}`)
	const (
		sUninit State = iota
		sOpenEmpty
		sOpenNonEmpty
		sClosed
	)
	proto := &Protocol{
		NumStates:  4,
		Init:       sUninit,
		StateNames: []string{"uninitialized", "open-empty", "open-nonempty", "closed"},
		Transitions: map[StateMethod]State{
			{sUninit, "create"}:      sOpenEmpty,
			{sOpenEmpty, "put"}:      sOpenNonEmpty,
			{sOpenNonEmpty, "put"}:   sOpenNonEmpty,
			{sOpenEmpty, "get"}:      sOpenEmpty,
			{sOpenNonEmpty, "get"}:   sOpenNonEmpty,
			{sOpenEmpty, "close"}:    sClosed,
			{sOpenNonEmpty, "close"}: sClosed,
		},
	}
	// The File allocation is the only OpNew in Main.main.
	site := -1
	for _, in := range prog.Instrs {
		if in.Op == ir.OpNew && in.Class().Name == "File" {
			site = int(in.AllocSite)
		}
	}
	if site < 0 {
		t.Fatal("no File allocation site")
	}
	ts := NewTypestateTracker(prog, proto, site)
	m := interp.New(prog)
	m.Tracer = ts
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ts.Violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(ts.Violations))
	}
	v := ts.Violations[0]
	if v.Method != "get" || v.StateStr != "closed" {
		t.Errorf("violation = %s in %s, want get in closed", v.Method, v.StateStr)
	}
	// History: create, put, put(merged), close, get. Under abstraction the
	// two puts in the same state merge; expect at least 4 events.
	if len(v.History) < 4 {
		t.Errorf("history too short: %d\n%s", len(v.History), v)
	}
	// Graph stays bounded: nodes ≤ tracked call sites × states.
	if ts.G.NumNodes() > 5*proto.NumStates {
		t.Errorf("typestate graph too large: %d nodes", ts.G.NumNodes())
	}
}

// TestCopyProfilingFigure2c reproduces Figure 2(c): a value loaded from
// O1.f travels through stack copies b, c into O3.f; the chain must be
// recoverable with its intermediate stack hops.
func TestCopyProfilingFigure2c(t *testing.T) {
	prog := compile(t, `
class A { int f; }
class Main {
  static void main() {
    A a1 = new A();       // O1
    a1.f = 41;
    int b = a1.f;         // load
    int c = b;            // stack copy
    A a3 = new A();       // O3
    a3.f = c;             // store: completes the chain O1.f -> O3.f
    print(a3.f);
  }
}`)
	cp := NewCopyProfiler(prog)
	m := interp.New(prog)
	m.Tracer = cp
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	chains := cp.Chains()
	var found *Chain
	for i := range chains {
		c := &chains[i]
		if !c.Src.IsBottom() && c.Src.Field >= 0 && !c.Dst.IsBottom() && c.Src.Site != c.Dst.Site {
			found = c
			break
		}
	}
	if found == nil {
		t.Fatalf("no cross-object copy chain found:\n%s", FormatChains(chains, 10))
	}
	if found.Count != 1 {
		t.Errorf("chain count = %d, want 1", found.Count)
	}
	if found.StackHops < 1 {
		t.Errorf("chain lost its intermediate stack copies: %v", found)
	}
}

func TestCopyProfilerCountsCopies(t *testing.T) {
	prog := compile(t, `
class Box { int v; }
class Main {
  static void main() {
    Box b = new Box();
    b.v = 1;
    int s = 0;
    for (int i = 0; i < 50; i = i + 1) {
      int x = b.v;   // load copy
      int y = x;     // stack copy
      s = s + y;
    }
    print(s);
  }
}`)
	cp := NewCopyProfiler(prog)
	m := interp.New(prog)
	m.Tracer = cp
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if cp.TotalCopies < 150 {
		t.Errorf("TotalCopies = %d, want >= 150", cp.TotalCopies)
	}
	// Abstraction keeps the graph bounded by |I| × |D| in principle and tiny
	// in practice.
	if cp.G.NumNodes() > prog.NumInstrs()*4 {
		t.Errorf("copy graph too large: %d nodes for %d instrs", cp.G.NumNodes(), prog.NumInstrs())
	}
}

// TestCopyChainStackHopsPerChain: two chains from one source each count
// the stack hops on their own path. The value of a.f reaches b.g through
// three stack copies (the load's temporary into x, then y and z) and c.h
// through one (the load's temporary into w).
func TestCopyChainStackHopsPerChain(t *testing.T) {
	prog := compile(t, `
class A { int f; }
class B { int g; }
class C { int h; }
class Main {
  static void main() {
    A a = new A();
    a.f = 7;
    B b = new B();
    C c = new C();
    int x = a.f;
    int y = x;
    int z = y;
    b.g = z;
    int w = a.f;
    c.h = w;
  }
}`)
	cp := NewCopyProfiler(prog)
	m := interp.New(prog)
	m.Tracer = cp
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got := FormatChains(cp.Chains(), 10)
	want := "O0.f0 -> O1.f1 ×1 (3 stack hops)\nO0.f0 -> O2.f2 ×1 (1 stack hops)\n"
	if got != want {
		t.Errorf("chains:\n%s\nwant\n%s", got, want)
	}
}

// TestMethodCosts: an expensive pure computation method must out-rank a
// cheap accessor.
func TestMethodCosts(t *testing.T) {
	prog := compile(t, `
class Calc {
  int cheap(int x) { return x + 1; }
  int pricey(int x) {
    int s = 0;
    for (int i = 0; i < 200; i = i + 1) { s = s + i * x; }
    return s;
  }
}
class Main {
  static void main() {
    Calc c = new Calc();
    int a = c.cheap(1);
    int b = c.pricey(2);
    print(a + b);
  }
}`)
	p := profiler.New(prog, profiler.Options{Slots: 16})
	mct := NewMethodCostTracker(p)
	m := interp.New(prog)
	m.Tracer = mct
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	costs := mct.MethodCosts()
	idx := map[string]int{}
	val := map[string]float64{}
	for i, c := range costs {
		idx[c.Method.Name] = i
		val[c.Method.Name] = c.RelCost
	}
	if _, ok := idx["pricey"]; !ok {
		t.Fatalf("pricey missing from report: %+v", costs)
	}
	if idx["pricey"] > idx["cheap"] {
		t.Errorf("pricey (%.0f) should rank above cheap (%.0f)", val["pricey"], val["cheap"])
	}
	if val["pricey"] < 100 {
		t.Errorf("pricey RelCost = %.0f, want >= 100", val["pricey"])
	}
}

// TestRewriteTracker: the derby pattern — an array updated on every
// operation but read rarely.
func TestRewriteTracker(t *testing.T) {
	prog := compile(t, `
class Container {
  int[] info;
  void update(int v) {
    this.info[0] = v;
    this.info[1] = v + 1;
  }
}
class Main {
  static void main() {
    Container c = new Container();
    c.info = new int[2];
    for (int i = 0; i < 100; i = i + 1) { c.update(i); }
    print(c.info[0]);   // single read at the end
  }
}`)
	rw := NewRewriteTracker(prog)
	m := interp.New(prog)
	m.Tracer = rw
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	reps := rw.Report(10)
	if len(reps) == 0 {
		t.Fatal("no rewrite reports")
	}
	top := reps[0]
	if top.Overwrites < 150 { // ~199 of 200 element writes are silent
		t.Errorf("top overwrites = %d, want >= 150\n%v", top.Overwrites, top)
	}
	if top.OverwriteRatio() < 0.7 {
		t.Errorf("overwrite ratio = %.2f, want >= 0.7", top.OverwriteRatio())
	}
}

// TestPredicateTracker: the bloat pattern — debug predicates that never
// fire.
func TestPredicateTracker(t *testing.T) {
	prog := compile(t, `
class Main {
  static void main() {
    int debug = 0;
    int work = 0;
    for (int i = 0; i < 500; i = i + 1) {
      if (debug == 1) { print(i); }       // always false
      if (i % 2 == 0) { work = work + 1; } // mixed
    }
    print(work);
  }
}`)
	pt := NewPredicateTracker(prog)
	m := interp.New(prog)
	m.Tracer = pt
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	consts := pt.Constants(100)
	// Exactly two constant predicates: the debug check and the loop bound's
	// exit check never... the loop check is mixed (true at exit), so expect
	// the debug check plus none else with 100+ single-outcome executions.
	foundDebug := false
	for _, c := range consts {
		if c.Count >= 490 && c.Count <= 510 {
			foundDebug = true
		}
	}
	if !foundDebug {
		t.Errorf("debug predicate not flagged: %+v", consts)
	}
}

// TestRankCollections: containers rank by cost-benefit; a write-only list
// must beat a well-used one.
func TestRankCollections(t *testing.T) {
	prog := compile(t, `
class IntList {
  int[] data;
  int size;
  void add(int v) { this.data[this.size] = v; this.size = this.size + 1; }
  int get(int i) { return this.data[i]; }
}
class Main {
  static void main() {
    IntList used = new IntList();
    used.data = new int[100];
    IntList wasted = new IntList();
    wasted.data = new int[100];
    int s = 0;
    for (int i = 0; i < 100; i = i + 1) {
      used.add(i * 3 + 1);
      wasted.add(i * 7 + 2);
      s = s + used.get(i);
    }
    print(s);
  }
}`)
	p := profiler.New(prog, profiler.Options{Slots: 64})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	a := costben.NewAnalysis(p.G)
	ranked := RankCollections(a.RankBySite(costben.DefaultTreeHeight))
	if len(ranked) < 2 {
		t.Fatalf("expected >= 2 container sites, got %d", len(ranked))
	}
	// Identify the wasted list's site: it is the IntList allocated second.
	var usedSite, wastedSite = -1, -1
	seen := 0
	for _, in := range prog.Instrs {
		if in.Op == ir.OpNew && in.Class().Name == "IntList" {
			if seen == 0 {
				usedSite = int(in.AllocSite)
			} else {
				wastedSite = int(in.AllocSite)
			}
			seen++
		}
	}
	pos := map[int]int{}
	for i, r := range ranked {
		pos[int(r.Site.AllocSite)] = i
	}
	if pos[wastedSite] > pos[usedSite] {
		t.Errorf("wasted list (pos %d) should out-rank used list (pos %d)",
			pos[wastedSite], pos[usedSite])
	}
}
