package profiler

import (
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/mjc"
)

// freqParitySrc is a fuzzer-found reproducer (fuzzgen seed
// 7665958480717146759) for a lost-update bug in the dense fast path: the
// profiler caches the graph's dense frequency table, and AfterCall's
// call-assignment node could grow (reallocate) that table without the cache
// being re-fetched, so the next method body's fast-path increments landed in
// the orphaned array. The two .step calls below straddle exactly such a
// growth boundary: the second call's body counted for nothing, halving the
// callee's recorded frequencies.
const freqParitySrc = `
class Base {
  int fa;
  int fb;
  Base link;
  int step(int x) {
    this.fb = x;
    int v1 = ((this.fb & this.fb) ^ (x % 2));
    return v1;
  }
  int tag() {
    return 7;
  }
}
class SubA extends Base {
  int ga;
  int step(int x) {
    this.ga = 558;
    this.fb = 709;
    return x;
  }
  int tag() {
    return 17;
  }
}
class SubB extends Base {
  int gb;
  int step(int x) {
    this.fa = hash(hash(266));
    return (this.fa + this.fb);
  }
  int tag() {
    return 24;
  }
}
class Scratch {
  int sa;
  int sb;
  int sc;
}
class W1 {
  int acc1;
  int m0(int d, int a) {
    if (d <= 0) {
      return (a % 97);
    }
    print(this.acc1);
    if ((hash(d) < (-20 & this.acc1))) {
      a = ((this.acc1 + this.acc1) / 6);
    }
    if (0 < 1) {
      int w3 = 5;
      while (w3 > 0) {
        w3 = w3 - 1;
        int v4 = (this.acc1 & d);
        Base r5 = new Base();
      }
    }
    Base r6 = new SubA();
    r6.link = r6;
    return (r6.fb + this.m0((d - 1), d));
  }
}
class Main {
  static void main() {
    int total = 0;
    Base[] pool11 = new Base[4];
    for (int i12 = 0; i12 < pool11.length; i12 = i12 + 1) {
      if ((i12 % 2) == 0) {
        pool11[i12] = new SubA();
      } else {
        pool11[i12] = new SubA();
      }
    }
    Scratch s13 = new Scratch();
    s13.sa = 692;
    s13.sb = pool11[1].step(pool11[3].step(total));
    W1 r14 = new W1();
    total = (total + r14.m0(2, (total & r14.acc1)));
    print(total);
  }
}
`

// freqMap flattens a graph to node-identity -> frequency.
func freqMap(g *depgraph.Graph) map[string]int64 {
	m := make(map[string]int64)
	g.Nodes(func(n *depgraph.Node) {
		m[n.String()] = n.Freq()
	})
	return m
}

// TestDenseFreqMatchesLegacyGraph pins node-frequency parity between the
// profiler's fast path, which increments through its cached dense-table
// view, and the general path (fast cleared), which interns through the
// graph on every event and therefore cannot lose increments to a stale
// table view. Both run the facade's configuration, conflict tracking
// included.
func TestDenseFreqMatchesLegacyGraph(t *testing.T) {
	prog, err := mjc.Compile(freqParitySrc)
	if err != nil {
		t.Fatal(err)
	}
	profile := func(fast bool) *depgraph.Graph {
		p := New(prog, Options{Slots: 16, TrackCR: true})
		p.fast = fast
		m := interp.New(prog)
		m.Tracer = p
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return p.G
	}
	fast := freqMap(profile(true))
	slow := freqMap(profile(false))
	if len(fast) != len(slow) {
		t.Fatalf("node count: fast path %d, general path %d", len(fast), len(slow))
	}
	for k, sf := range slow {
		if ff, ok := fast[k]; !ok {
			t.Errorf("node %s missing from the fast-path graph", k)
		} else if ff != sf {
			t.Errorf("node %s: fast-path freq %d, general-path freq %d", k, ff, sf)
		}
	}
}

// TestFacadeOptionsTakeFastPath pins which configurations run the inlined
// fast path. The facade always tracks conflicts, so a regression that
// turned conflict tracking back into a per-event extra would slow every
// profile without changing a single report byte.
func TestFacadeOptionsTakeFastPath(t *testing.T) {
	prog, err := mjc.Compile(freqParitySrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts Options
		fast bool
	}{
		{Options{Slots: 16, TrackCR: true}, true},
		{Options{Slots: 16, TrackCR: true, Traditional: true}, true},
		{Options{Slots: 16}, true},
		{Options{Slots: 16, TrackCR: true, TrackControl: true}, false},
		{Options{Unabstracted: true}, false},
	} {
		if got := New(prog, c.opts).fast; got != c.fast {
			t.Errorf("%+v: fast path %v, want %v", c.opts, got, c.fast)
		}
	}
}
