package mjlib

import (
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/interp"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
)

func run(t *testing.T, src string) []int64 {
	t.Helper()
	prog, err := mjc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(prog)
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.Output
}

func TestArrayListSemantics(t *testing.T) {
	out := run(t, Concat(ArrayList, `
class Main {
  static void main() {
    ArrayList l = new ArrayList();
    l.init();
    for (int i = 0; i < 100; i = i + 1) { l.add(i * 3); }  // forces growth
    print(l.count());
    print(l.get(0));
    print(l.get(99));
    l.set(50, -1);
    print(l.get(50));
    print(l.indexOf(-1));
    print(l.contains(297));
    print(l.contains(5));
  }
}`))
	want := []int64{100, 0, 297, -1, 50, 1, 0}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestIntMapSemantics(t *testing.T) {
	out := run(t, Concat(IntMap, `
class Main {
  static void main() {
    IntMap m = new IntMap();
    m.init();
    for (int i = 0; i < 200; i = i + 1) { m.put(i * 7, i); }  // forces rehash
    print(m.count());
    print(m.get(0, -1));
    print(m.get(7 * 123, -1));
    print(m.get(5, -1));       // absent
    print(m.has(7 * 199));
    m.put(7, 999);             // overwrite
    print(m.get(7, -1));
    print(m.count());          // unchanged by overwrite
  }
}`))
	want := []int64{200, 0, 123, -1, 1, 999, 200}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestStrBufSemantics(t *testing.T) {
	out := run(t, Concat(StrBuf, `
class Main {
  static void main() {
    StrBuf b = new StrBuf();
    b.init();
    b.appendInt(0);
    b.appendInt(-45);
    b.appendInt(12345);
    print(b.length());   // "0" + "-45" + "12345" = 1 + 3 + 5 = 9
    // Digits appear most-significant first.
    StrBuf c = new StrBuf();
    c.init();
    c.appendInt(907);
    print(c.length());
    int h = c.digest();
    StrBuf d = new StrBuf();
    d.init();
    d.append(57); d.append(48); d.append(55);  // '9','0','7'
    print(h == d.digest());
  }
}`))
	want := []int64{9, 3, 1}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestQueueAndStackSemantics(t *testing.T) {
	out := run(t, Concat(IntQueue, IntStack, `
class Main {
  static void main() {
    IntQueue q = new IntQueue();
    q.init(3);
    print(q.offer(1));
    print(q.offer(2));
    print(q.offer(3));
    print(q.offer(4));      // full
    print(q.poll(-1));      // 1 (FIFO)
    print(q.offer(4));      // wraps
    print(q.poll(-1));
    print(q.poll(-1));
    print(q.poll(-1));
    print(q.poll(-1));      // empty

    IntStack s = new IntStack();
    s.init();
    for (int i = 0; i < 20; i = i + 1) { s.push(i); }  // forces growth
    print(s.pop(-1));       // 19 (LIFO)
    int last = 0;
    while (!s.empty()) { last = s.pop(-1); }
    print(last);
    print(s.pop(-7));       // empty default
  }
}`))
	want := []int64{1, 1, 1, 0, 1, 1, 2, 3, 4, -1, 19, 0, -7}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out[%d] = %v, want %v (full: %v)", i, out[i], w, out)
		}
	}
}

// TestDeepTreeRanking: a write-only IntMap gives the cost-benefit analysis a
// genuine height-4 structure (map → buckets → entries → values); the tool
// must flag it while a read-heavy map survives.
func TestDeepTreeRanking(t *testing.T) {
	src := Concat(IntMap, `
class Main {
  static void main() {
    IntMap used = new IntMap();
    used.init();
    IntMap wasted = new IntMap();
    wasted.init();
    int acc = 0;
    for (int i = 0; i < 80; i = i + 1) {
      used.put(i, hash(i) % 100);
      acc = acc + used.get(i, 0);
      wasted.put(i, hash(i + 1) % 100);   // populated, never queried
    }
    print(acc);
  }
}`)
	prog, err := mjc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New(prog, profiler.Options{Slots: 64})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	an := costben.NewAnalysis(p.G)
	ranked := an.RankStructures(costben.DefaultTreeHeight, 1)

	// Find the two IntMap abstractions (same site cannot happen here: two
	// distinct sites in Main.main).
	var usedRate, wastedRate float64 = -1, -1
	seen := 0
	for _, r := range ranked {
		if r.Site.Op.String() == "new" && r.Site.Class != nil && r.Site.Class.Name == "IntMap" {
			if seen == 0 {
				// ranked is by rate desc; first IntMap hit is the worse one
			}
			seen++
		}
	}
	_ = usedRate
	_ = wastedRate
	// Identify sites in allocation order: used first, wasted second.
	var sites []int
	for _, in := range prog.Instrs {
		if in.Op.String() == "new" && in.Class != nil && in.Class.Name == "IntMap" {
			sites = append(sites, in.AllocSite)
		}
	}
	if len(sites) != 2 {
		t.Fatalf("IntMap sites = %d, want 2", len(sites))
	}
	rateOf := func(site int) float64 {
		for _, r := range an.RankBySite(costben.DefaultTreeHeight) {
			if r.Site.AllocSite == site {
				return r.Rate
			}
		}
		return -1
	}
	used, wasted := rateOf(sites[0]), rateOf(sites[1])
	if wasted <= used {
		t.Errorf("write-only map rate (%v) should exceed used map rate (%v)", wasted, used)
	}
	if wasted <= 0 {
		t.Errorf("write-only map should have positive rate, got %v", wasted)
	}
}

func TestAllConcatCompiles(t *testing.T) {
	src := Concat(All(), `class Main { static void main() { print(1); } }`)
	if _, err := mjc.Compile(src); err != nil {
		t.Fatalf("library does not compile: %v", err)
	}
}
