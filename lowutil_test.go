package lowutil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lowutil/internal/workloads"
)

const quickSrc = `
class Point { int x; int y; }
class Series {
  Point[] items;
  int size;
  void init(int cap) { this.items = new Point[cap]; this.size = 0; }
  void add(Point p) { this.items[this.size] = p; this.size = this.size + 1; }
  int count() { return this.size; }
}
class Main {
  static void main() {
    int axisUnits = 0;
    for (int s = 0; s < 20; s = s + 1) {
      Series ser = new Series();
      ser.init(50);
      for (int i = 0; i < 50; i = i + 1) {
        Point p = new Point();
        p.x = hash(s * 100 + i) % 640;
        p.y = hash(s * 200 + i) % 480;
        ser.add(p);
      }
      axisUnits = axisUnits + ser.count();
    }
    print(axisUnits);
  }
}`

func TestFacadeCompileRun(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 20*50 {
		t.Fatalf("output = %v, want [1000]", res.Output)
	}
	if res.Steps == 0 || res.Allocs == 0 {
		t.Error("counters empty")
	}
	if !strings.Contains(prog.Disassemble(), "class Series") {
		t.Error("disassembly incomplete")
	}
	if prog.NumInstructions() < 20 {
		t.Error("instruction count too low")
	}
}

func TestFacadeProfileFlagsPoints(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := prog.ProfileContext(context.Background(), WithSlots(16))
	if err != nil {
		t.Fatal(err)
	}
	top := profile.TopStructures(5)
	if len(top) == 0 {
		t.Fatal("no findings")
	}
	// The Point objects (expensive hash coordinates, never read) must rank
	// first or second, with finite benefit.
	found := false
	for _, f := range top[:2] {
		if strings.Contains(f.Where, "new Point") && !f.ReachesConsumer && f.Rate > 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("Point not flagged in top 2:\n%s", profile.Report(5))
	}

	ds := profile.Deadness()
	if ds.IPD <= 0 {
		t.Errorf("IPD = %v, want > 0 (dead point coordinates)", ds.IPD)
	}
	gs := profile.GraphStats()
	if gs.Nodes == 0 || gs.DepEdges == 0 {
		t.Error("graph stats empty")
	}
	rep := profile.Report(3)
	for _, frag := range []string{"Gcost:", "IPD", "top low-utility"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
}

func TestFacadeDiagnoseNull(t *testing.T) {
	prog, err := Compile(`
class Box { Box inner; int v; }
class Main {
  static void main() {
    Box a = new Box();
    Box b = a.inner;   // null
    print(b.v);
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := prog.DiagnoseNull()
	if err != nil {
		t.Fatal(err)
	}
	if diag == nil {
		t.Fatal("expected a diagnosis")
	}
	if !strings.Contains(diag.Report, "null created at") {
		t.Errorf("report: %s", diag.Report)
	}

	// A clean program yields no diagnosis and no error.
	ok, err := Compile(`class Main { static void main() { print(1); } }`)
	if err != nil {
		t.Fatal(err)
	}
	diag, err = ok.DiagnoseNull()
	if err != nil || diag != nil {
		t.Errorf("clean program: diag=%v err=%v", diag, err)
	}
}

func TestFacadeTypestate(t *testing.T) {
	prog, err := Compile(`
class Conn {
  int s;
  void open() { this.s = 1; }
  void send(int b) { this.s = this.s; }
  void close() { this.s = 2; }
}
class Main {
  static void main() {
    Conn c = new Conn();
    c.open();
    c.send(1);
    c.close();
    c.send(2);   // violation: send after close
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	proto := &TypestateProtocol{
		StateNames: []string{"new", "open", "closed"},
		Initial:    0,
		Transitions: []TypestateTransition{
			{0, "open", 1},
			{1, "send", 1},
			{1, "close", 2},
		},
	}
	violations, err := prog.Typestate(proto, "Conn")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "send") || !strings.Contains(violations[0], "closed") {
		t.Errorf("violations = %v", violations)
	}
}

func TestFacadeCopyChains(t *testing.T) {
	prog, err := Compile(`
class A { int f; }
class B { int g; }
class Main {
  static void main() {
    A a = new A();
    a.f = 9;
    B b = new B();
    for (int i = 0; i < 30; i = i + 1) {
      int t = a.f;
      b.g = t;
    }
    print(b.g);
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	chains, total, err := prog.CopyChains(5)
	if err != nil {
		t.Fatal(err)
	}
	if total < 60 {
		t.Errorf("total copies = %d, want >= 60", total)
	}
	found := false
	for _, c := range chains {
		if c.Count >= 30 && strings.Contains(c.Src, ".f") {
			found = true
		}
	}
	if !found {
		t.Errorf("a.f → b.g chain missing: %+v", chains)
	}
}

func TestFacadePredicatesAndOverwrites(t *testing.T) {
	prog, err := Compile(`
class S { int[] buf; }
class Main {
  static void main() {
    boolean debug = false;
    S s = new S();
    s.buf = new int[4];
    int n = 0;
    for (int i = 0; i < 200; i = i + 1) {
      if (debug) { print(i); }
      s.buf[0] = i;           // overwritten every iteration, read never
      n = n + 1;
    }
    print(n);
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := prog.ConstantPredicates(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Error("debug predicate not reported")
	}
	writes, err := prog.SilentOverwrites(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) == 0 || !strings.Contains(writes[0], "overwrites") {
		t.Errorf("silent overwrites not reported: %v", writes)
	}
}

func TestFacadeMultiHopRanking(t *testing.T) {
	prog, err := Compile(`
class Raw { int v; }
class Wrapped { int w; }
class Main {
  static void main() {
    Raw r = new Raw();
    int s = 0;
    for (int i = 0; i < 400; i = i + 1) { s = s + i; }
    r.v = s;                 // the expensive producer
    Wrapped w = new Wrapped();
    w.w = r.v + 1;           // cheap one-hop wrapper, value then dies
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := prog.ProfileContext(context.Background(), WithSlots(16))
	if err != nil {
		t.Fatal(err)
	}
	oneHop := profile.TopStructuresMultiHop(5, 1)
	twoHop := profile.TopStructuresMultiHop(5, 2)
	costOf := func(fs []Finding, frag string) float64 {
		for _, f := range fs {
			if strings.Contains(f.Where, frag) {
				return f.Cost
			}
		}
		return -1
	}
	w1 := costOf(oneHop, "Wrapped")
	w2 := costOf(twoHop, "Wrapped")
	if w1 < 0 || w2 < 0 {
		t.Fatalf("Wrapped missing: 1-hop %v, 2-hop %v", oneHop, twoHop)
	}
	if w1 >= 400 {
		t.Errorf("1-hop cost of Wrapped = %v, should exclude the 400-loop", w1)
	}
	if w2 < 400 {
		t.Errorf("2-hop cost of Wrapped = %v, should include the 400-loop", w2)
	}
	// 1-hop results agree with the default ranking.
	def := profile.TopStructures(5)
	if len(def) != len(oneHop) {
		t.Errorf("1-hop and default rankings differ in size: %d vs %d", len(oneHop), len(def))
	}
}

func TestFacadeCacheReports(t *testing.T) {
	prog, err := Compile(`
class Memo { int[] vals; }
class Main {
  static int compute(int k) {
    int s = 0;
    for (int i = 0; i < 60; i = i + 1) { s = s + i * k; }
    return s;
  }
  static void main() {
    Memo m = new Memo();
    m.vals = new int[4];
    for (int k = 0; k < 4; k = k + 1) { m.vals[k] = compute(k); }
    int acc = 0;
    for (int r = 0; r < 40; r = r + 1) {
      for (int k = 0; k < 4; k = k + 1) { acc = acc + m.vals[k]; }
    }
    print(acc);
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := prog.ProfileContext(context.Background(), WithSlots(16))
	if err != nil {
		t.Fatal(err)
	}
	reps := profile.CacheReports(10)
	if len(reps) == 0 {
		t.Fatal("no cache reports")
	}
	// The memo table (4 stores, 160 loads) must be reported as effective.
	found := false
	for _, r := range reps {
		if r.Stores == 4 && r.Loads == 160 && r.Effectiveness > 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("memo table not recognized as effective cache: %+v", reps)
	}
}

func TestFacadeControlTracking(t *testing.T) {
	src := `
class B { int y; }
class Main {
  static void main() {
    B b = new B();
    int guard = 0;
    for (int i = 0; i < 150; i = i + 1) { guard = guard + i; }
    if (guard > 10) { b.y = 5; }
    print(b.y);
  }
}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := prog.ProfileContext(context.Background(), WithSlots(16))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := prog.ProfileContext(context.Background(), WithSlots(16), WithTrackControl())
	if err != nil {
		t.Fatal(err)
	}
	costB := func(p *Profile) float64 {
		for _, f := range p.TopStructures(5) {
			if strings.Contains(f.Where, "new B") {
				return f.Cost
			}
		}
		return -1
	}
	if c := costB(plain); c >= 150 {
		t.Errorf("plain cost %v should exclude the guard loop", c)
	}
	if c := costB(ctrl); c < 150 {
		t.Errorf("control-tracked cost %v should include the guard loop", c)
	}
}

func TestFacadeSaveLoadProfile(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	live, err := prog.ProfileContext(context.Background(), WithSlots(16))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := prog.LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Steps() != live.Steps() {
		t.Errorf("steps differ: %d vs %d", loaded.Steps(), live.Steps())
	}
	liveTop := live.TopStructures(5)
	loadTop := loaded.TopStructures(5)
	if len(liveTop) != len(loadTop) {
		t.Fatalf("finding counts differ: %d vs %d", len(liveTop), len(loadTop))
	}
	for i := range liveTop {
		if liveTop[i] != loadTop[i] {
			t.Errorf("finding %d differs:\nlive:   %v\nloaded: %v", i, liveTop[i], loadTop[i])
		}
	}
	ld, dd := live.Deadness(), loaded.Deadness()
	if ld != dd {
		t.Errorf("deadness differs: %+v vs %+v", ld, dd)
	}

	// Loading into a different program is rejected.
	other, err := Compile(`class Main { static void main() { print(1); } }`)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := live.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadProfile(&buf2); err == nil {
		t.Error("want fingerprint rejection")
	}
}

// TestFacadeLoadProfileTreeHeight reloads a saved profile with
// WithTreeHeight(1): it must rank as a live profile with the same option
// does, not at the default height, which ranks this program differently.
func TestFacadeLoadProfileTreeHeight(t *testing.T) {
	prog, err := Compile(workloads.ByName("eclipse").Source(1))
	if err != nil {
		t.Fatal(err)
	}
	live, err := prog.ProfileContext(context.Background(), WithTreeHeight(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	load := func(opts ...Option) string {
		t.Helper()
		pr, err := prog.LoadProfile(bytes.NewReader(saved), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(pr.TopStructures(DefaultTop))
	}
	want := fmt.Sprint(live.TopStructures(DefaultTop))
	if got := load(WithTreeHeight(1)); got != want {
		t.Errorf("loaded with n=1:\n%s\nwant the live n=1 ranking:\n%s", got, want)
	}
	if load() == want {
		t.Error("the default tree height ranks like n=1; the test cannot tell them apart")
	}
}

func TestFacadeStaticSlice(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.StaticSliceContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static slice (mode=rta", "call graph:", "points-to:", "write-only"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	rep2, err := prog.StaticSliceContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep != rep2 {
		t.Error("static slice report is not byte-stable")
	}
	cha, err := prog.StaticSliceContext(context.Background(), WithMode("cha"), WithObjCtx(), WithTop(3))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cha, "mode=cha") || !strings.Contains(cha, "objctx=on") {
		t.Errorf("cha/objctx header wrong:\n%s", cha)
	}
	var oe *OptionError
	if _, err := prog.StaticSliceContext(context.Background(), WithMode("0cfa")); !errors.As(err, &oe) {
		t.Errorf("unknown mode: got %v, want an *OptionError", err)
	}
}

func TestFacadeStaticAudit(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := prog.StaticAudit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static audit (mode=rta", "allocation sites:", "lifetime:", "shapes:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	rep2, err := prog.StaticAudit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep != rep2 {
		t.Error("static audit report is not byte-stable")
	}
	cha, err := prog.StaticAudit(ctx, WithMode("cha"), WithObjCtx(), WithTop(3))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cha, "mode=cha") || !strings.Contains(cha, "objctx=on") {
		t.Errorf("cha/objctx header wrong:\n%s", cha)
	}
	var oe *OptionError
	if _, err := prog.StaticAudit(ctx, WithMode("0cfa")); !errors.As(err, &oe) {
		t.Errorf("unknown mode: got %v, want an *OptionError", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := prog.StaticAudit(canceled); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled audit: got %v, want ErrCanceled", err)
	}
}

// TestNegativeTopListsNothing: every top-k method of the facade treats a
// negative k like 0 (an empty list) instead of panicking, and k = 1 still
// lists one entry.
func TestNegativeTopListsNothing(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := prog.ProfileContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	copyProg, err := Compile(`
class A { int f; }
class B { int g; }
class Main {
  static void main() {
    A a = new A();
    a.f = 9;
    B b = new B();
    b.g = a.f;
    print(b.g);
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	// Report numbers its findings "  1. ", "  2. ", …
	reportFindings := func(k int) int { return strings.Count(profile.Report(k), ". site ") }
	methods := []struct {
		name string
		list func(k int) int
	}{
		{"TopStructures", func(k int) int { return len(profile.TopStructures(k)) }},
		{"TopStructuresMultiHop", func(k int) int { return len(profile.TopStructuresMultiHop(k, 2)) }},
		{"Collections", func(k int) int { return len(profile.Collections(k)) }},
		{"Report", reportFindings},
		{"CopyChains", func(k int) int {
			chains, _, err := copyProg.CopyChains(k)
			if err != nil {
				t.Fatal(err)
			}
			return len(chains)
		}},
	}
	for _, m := range methods {
		for _, k := range []int{-1, 0, 1} {
			want := max(k, 0)
			if got := m.list(k); got != want {
				t.Errorf("%s(%d) lists %d entries, want %d", m.name, k, got, want)
			}
		}
	}
}
