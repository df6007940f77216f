package workloads

import "fmt"

func init() {
	register(&Workload{
		Name:    "lusearch",
		Profile: "query scoring over an index; scores feed ranking predicates (high IPP)",
		Source: func(scale int) string {
			return fmt.Sprintf(`
// lusearch-alike: queries score documents; most arithmetic exists to be
// compared against the current top-k threshold.
class Scorer {
  int[] docScores;
  int topDoc;
  int topScore;
  void init(int docs) { this.docScores = new int[docs]; }
  void score(int term, int weight) {
    for (int d = 0; d < this.docScores.length; d = d + 1) {
      int tf = hash(term * 131 + d) %% 8;
      if (tf < 0) { tf = -tf; }
      int s = this.docScores[d] + tf * weight;
      this.docScores[d] = s;
      if (s > this.topScore) {
        this.topScore = s;
        this.topDoc = d;
      }
    }
  }
}
class Main {
  static void main() {
    int queries = %d;
    int docs = 50;
    int best = 0;
    for (int q = 0; q < queries; q = q + 1) {
      Scorer sc = new Scorer();
      sc.init(docs);
      for (int t = 0; t < 4; t = t + 1) {
        sc.score(q * 4 + t, t + 1);
      }
      best = best + sc.topDoc;
    }
    print(best);
  }
}`, 15*scale)
		},
	})

	register(&Workload{
		Name:    "eclipse",
		Profile: "visitor objects per traversal + hashtable rehash recomputing entry hashes (high IPD)",
		Plants:  []Plant{{"TreeIterator.init", 18}, {"TreeIterator.next", 31}, {"HashtableOfArray.rehash", 72}, {"HashtableOfArray.rehash", 73}, {"Main.main", 101}, {"Main.main", 102}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// eclipse-alike: workspace traversals allocate stateless visitor and
// iterator objects, and HashtableOfArrayToObject recomputes element hashes
// on every rehash.
class Resource {
  int id;
  Resource[] children;
  int nChildren;
}
class Visitor {
  int visited;
  boolean visit(Resource r) { this.visited = this.visited + 1; return true; }
}
class IterFrame { Resource res; int idx; IterFrame below; }
class TreeIterator {                 // general stack-based iterator used
  IterFrame top;                     // for a plain tree (over-general)
  void init(Resource root) {
    IterFrame f = new IterFrame();
    f.res = root;
    f.idx = 0;
    this.top = f;
  }
  Resource next() {
    while (this.top != null) {
      IterFrame f = this.top;
      if (f.idx == 0) {
        f.idx = 1;
        if (f.res.nChildren > 0) {
          int i = f.res.nChildren - 1;
          while (i >= 0) {
            IterFrame nf = new IterFrame();
            nf.res = f.res.children[i];
            nf.idx = 0;
            nf.below = this.top;
            this.top = nf;
            i = i - 1;
          }
        }
        return f.res;
      }
      this.top = f.below;
    }
    return null;
  }
}
class HashtableOfArray {
  int[][] keys;
  int[] values;
  int size;
  void init(int cap) {
    this.keys = new int[cap][];
    this.values = new int[cap];
    this.size = 0;
  }
  int hashKey(int[] key) {           // expensive: touches every element
    int h = 17;
    for (int i = 0; i < key.length; i = i + 1) { h = h * 31 + key[i]; }
    return h;
  }
  void put(int[] key, int value) {
    if (this.size * 2 >= this.keys.length) { this.rehash(); }
    int h = this.hashKey(key) %% this.keys.length;
    if (h < 0) { h = -h; }
    while (this.keys[h] != null) { h = (h + 1) %% this.keys.length; }
    this.keys[h] = key;
    this.values[h] = value;
    this.size = this.size + 1;
  }
  void rehash() {                    // recomputes every key hash
    int[][] oldKeys = this.keys;
    int[] oldVals = this.values;
    this.keys = new int[oldKeys.length * 2][];
    this.values = new int[oldKeys.length * 2];
    this.size = 0;
    for (int i = 0; i < oldKeys.length; i = i + 1) {
      if (oldKeys[i] != null) { this.put(oldKeys[i], oldVals[i]); }
    }
  }
}
class WorkspaceGen {
  Resource gen(int depth, int seed) {
    Resource r = new Resource();
    r.id = seed;
    int fan = 0;
    if (depth > 0) { fan = 3; }
    r.children = new Resource[fan];
    r.nChildren = fan;
    for (int i = 0; i < fan; i = i + 1) {
      r.children[i] = this.gen(depth - 1, seed * 4 + i + 1);
    }
    return r;
  }
}
class Main {
  static void main() {
    int traversals = %d;
    WorkspaceGen g = new WorkspaceGen();
    Resource root = g.gen(4, 1);
    int visits = 0;
    for (int t = 0; t < traversals; t = t + 1) {
      Visitor v = new Visitor();          // fresh stateless visitor
      TreeIterator it = new TreeIterator(); // fresh iterator machinery
      it.init(root);
      Resource r = it.next();
      while (r != null) {
        boolean more = v.visit(r);
        if (!more) { break; }
        r = it.next();
      }
      visits = visits + v.visited;
    }
    HashtableOfArray ht = new HashtableOfArray();
    ht.init(8);
    for (int k = 0; k < traversals * 4; k = k + 1) {
      int[] key = new int[6];
      for (int i = 0; i < 6; i = i + 1) { key[i] = hash(k * 6 + i); }
      ht.put(key, k);
    }
    print(visits);
    print(ht.size);
  }
}`, 8*scale)
		},
		Fix: &Fix{
			PaperResult: "14.5% running time reduction (151s → 129s), 2% fewer objects",
			Text: "replace the visitor implementation with a worklist implementation and cache " +
				"entry hash codes in an int array used during rehash",
			Edits: []Edit{
				{"class HashtableOfArray {\n", `class Worklist {
  Resource[] stack;
  void init(int cap) { this.stack = new Resource[cap]; }
  int traverse(Resource root) {
    int count = 0;
    int sp = 1;
    this.stack[0] = root;
    while (sp > 0) {
      sp = sp - 1;
      Resource r = this.stack[sp];
      count = count + 1;
      for (int i = 0; i < r.nChildren; i = i + 1) {
        this.stack[sp] = r.children[i];
        sp = sp + 1;
      }
    }
    return count;
  }
}
class HashtableOfArray {
  int[] hashes;                      // cached key hashes, read by rehash
`},
				{"    this.values = new int[cap];\n", "    this.values = new int[cap];\n    this.hashes = new int[cap];\n"},
				{`  void put(int[] key, int value) {
    if (this.size * 2 >= this.keys.length) { this.rehash(); }
    int h = this.hashKey(key) % this.keys.length;
`, `  void put(int[] key, int value) { this.putHashed(key, this.hashKey(key), value); }
  void putHashed(int[] key, int hc, int value) {
    if (this.size * 2 >= this.keys.length) { this.rehash(); }
    int h = hc % this.keys.length;
`},
				{"    this.values[h] = value;\n", "    this.values[h] = value;\n    this.hashes[h] = hc;\n"},
				{"    int[] oldVals = this.values;\n", "    int[] oldVals = this.values;\n    int[] oldHashes = this.hashes;\n"},
				{"    this.values = new int[oldKeys.length * 2];\n",
					"    this.values = new int[oldKeys.length * 2];\n    this.hashes = new int[oldKeys.length * 2];\n"},
				{"this.put(oldKeys[i], oldVals[i]);", "this.putHashed(oldKeys[i], oldHashes[i], oldVals[i]);"},
				{`    int visits = 0;
    for (int t = 0; t < traversals; t = t + 1) {
      Visitor v = new Visitor();          // fresh stateless visitor
      TreeIterator it = new TreeIterator(); // fresh iterator machinery
      it.init(root);
      Resource r = it.next();
      while (r != null) {
        boolean more = v.visit(r);
        if (!more) { break; }
        r = it.next();
      }
      visits = visits + v.visited;
    }
`, `    Worklist wl = new Worklist();
    wl.init(256);
    int visits = 0;
    for (int t = 0; t < traversals; t = t + 1) {
      visits = visits + wl.traverse(root);
    }
`},
			},
		},
	})

	register(&Workload{
		Name:    "avrora",
		Profile: "microcontroller simulation; register values feed subsequent instructions",
		Source: func(scale int) string {
			return fmt.Sprintf(`
// avrora-alike: an AVR-ish core stepping through flash; register state is
// continuously consumed.
class Core {
  int[] regs;
  int pc;
  int cycles;
  void init() { this.regs = new int[16]; this.pc = 0; this.cycles = 0; }
  void step(int[] flash) {
    int insn = flash[this.pc %% flash.length];
    int op = insn & 3;
    int rd = (insn >> 2) & 15;
    int rr = (insn >> 6) & 15;
    if (op == 0) { this.regs[rd] = this.regs[rd] + this.regs[rr]; }
    else if (op == 1) { this.regs[rd] = this.regs[rd] ^ this.regs[rr]; }
    else if (op == 2) { this.regs[rd] = insn >> 6; }
    else {
      if (this.regs[rd] != 0) { this.pc = this.pc + ((insn >> 10) & 63); }
    }
    this.pc = (this.pc + 1) & 8191;      // program counter stays bounded
    this.cycles = this.cycles + 1;
  }
}
class Main {
  static void main() {
    int steps = %d;
    int[] flash = new int[256];
    for (int i = 0; i < flash.length; i = i + 1) { flash[i] = hash(i * 97); }
    Core c = new Core();
    c.init();
    for (int i = 0; i < steps; i = i + 1) { c.step(flash); }
    int sum = 0;
    for (int r = 0; r < 16; r = r + 1) { sum = sum + c.regs[r]; }
    print(sum);
    print(c.cycles);
  }
}`, 800*scale)
		},
	})

	register(&Workload{
		Name:    "batik",
		Profile: "per-operation geometry clones whose originals are discarded",
		Plants:  []Plant{{"Transform.translate", 7}, {"Transform.scale", 13}, {"Transform.rotate90", 19}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// batik-alike: path transforms clone point objects per operation instead of
// mutating in place.
class Pt { int x; int y; }
class Transform {
  Pt translate(Pt p, int dx, int dy) {
    Pt q = new Pt();           // clone per op
    q.x = p.x + dx;
    q.y = p.y + dy;
    return q;
  }
  Pt scale(Pt p, int f) {
    Pt q = new Pt();
    q.x = p.x * f;
    q.y = p.y * f;
    return q;
  }
  Pt rotate90(Pt p) {
    Pt q = new Pt();
    q.x = -p.y;
    q.y = p.x;
    return q;
  }
}
class Main {
  static void main() {
    int paths = %d;
    Transform t = new Transform();
    int checksum = 0;
    for (int i = 0; i < paths; i = i + 1) {
      Pt p = new Pt();
      p.x = i %% 100;
      p.y = (i * 7) %% 100;
      for (int s = 0; s < 12; s = s + 1) {
        p = t.translate(p, 3, 4);
        p = t.scale(p, 2);
        p = t.rotate90(p);
        p = t.translate(p, -1, -1);
      }
      checksum = checksum + (p.x ^ p.y);
    }
    print(checksum);
  }
}`, 25*scale)
		},
	})

	register(&Workload{
		Name:    "derby",
		Profile: "container metadata array rewritten on every page write; id keys re-derived per access",
		Plants:  []Plant{{"FileContainer.init", 8}, {"ContextMap.init", 31}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// derby-alike: FileContainer keeps an info array that is regenerated on
// every page write although only checkpoints read it, and context lookups
// re-derive composite keys each time.
class FileContainer {
  int[] info;
  int pages;
  void init() { this.info = new int[8]; this.pages = 0; }
  void writePage(int pageNo, int data) {
    // the bloat: rebuild container metadata on every write
    this.info[0] = this.pages;
    this.info[1] = pageNo;
    this.info[2] = hash(pageNo) %% 4096;
    this.info[3] = data & 255;
    this.info[4] = this.info[0] + this.info[1];
    this.info[5] = hash(data) %% 4096;
    this.info[6] = 2;
    this.info[7] = 1;
    this.pages = this.pages + 1;
  }
  int checkpoint() {
    int s = 0;
    for (int i = 0; i < this.info.length; i = i + 1) { s = s + this.info[i]; }
    return s;
  }
}
class ContextMap {
  int[] keys;
  int[] vals;
  int size;
  void init(int cap) { this.keys = new int[cap]; this.vals = new int[cap]; this.size = 0; }
  int keyOf(int mgr, int kind) {      // re-derived composite "string" key
    int k = 17;
    k = k * 31 + mgr;
    k = k * 31 + kind;
    k = k * 31 + hash(mgr * 7 + kind);
    return k;
  }
  void put(int mgr, int kind, int v) {
    int k = this.keyOf(mgr, kind);
    for (int i = 0; i < this.size; i = i + 1) {
      if (this.keys[i] == k) { this.vals[i] = v; return; }
    }
    this.keys[this.size] = k;
    this.vals[this.size] = v;
    this.size = this.size + 1;
  }
  int get(int mgr, int kind) {
    int k = this.keyOf(mgr, kind);
    for (int i = 0; i < this.size; i = i + 1) {
      if (this.keys[i] == k) { return this.vals[i]; }
    }
    return -1;
  }
}
class Main {
  static void main() {
    int writes = %d;
    FileContainer fc = new FileContainer();
    fc.init();
    ContextMap cm = new ContextMap();
    cm.init(32);
    int acc = 0;
    for (int i = 0; i < writes; i = i + 1) {
      fc.writePage(i, hash(i));
      cm.put(i %% 8, i %% 3, i);
      acc = acc + cm.get(i %% 8, (i + 1) %% 3);
    }
    print(fc.checkpoint());      // the single metadata read
    print(acc);
  }
}`, 60*scale)
		},
		Fix: &Fix{
			PaperResult: "6% running time reduction, 8.6% fewer objects",
			Text: "update the array only before it is read, and replace the derived keys with " +
				"plain integer IDs",
			Edits: []Edit{
				{"  int pages;\n", "  int pages;\n  int lastPage;\n  int lastData;\n"},
				{`    // the bloat: rebuild container metadata on every write
    this.info[0] = this.pages;
    this.info[1] = pageNo;
    this.info[2] = hash(pageNo) % 4096;
    this.info[3] = data & 255;
    this.info[4] = this.info[0] + this.info[1];
    this.info[5] = hash(data) % 4096;
    this.info[6] = 2;
    this.info[7] = 1;
    this.pages = this.pages + 1;
  }
  int checkpoint() {
`, `    this.lastPage = pageNo;
    this.lastData = data;
    this.pages = this.pages + 1;
  }
  int checkpoint() {
    this.info[0] = this.pages - 1;
    this.info[1] = this.lastPage;
    this.info[2] = hash(this.lastPage) % 4096;
    this.info[3] = this.lastData & 255;
    this.info[4] = this.info[0] + this.info[1];
    this.info[5] = hash(this.lastData) % 4096;
    this.info[6] = 2;
    this.info[7] = 1;
`},
				{`    int k = 17;
    k = k * 31 + mgr;
    k = k * 31 + kind;
    k = k * 31 + hash(mgr * 7 + kind);
    return k;
`, "    return mgr * 31 + kind;\n"},
			},
		},
	})

	register(&Workload{
		Name:    "sunflow",
		Profile: "vector clones per arithmetic op + float↔int bit round-trips (high IPD)",
		Plants:  []Plant{{"Vec.cloneV", 17}, {"Shader.init", 25}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// sunflow-alike: every vector op starts by cloning, and shading values are
// packed into an int slot array and unpacked right back.
class Vec {
  int x; int y; int z;
  Vec add(Vec o) {
    Vec r = this.cloneV();
    r.x = r.x + o.x; r.y = r.y + o.y; r.z = r.z + o.z;
    return r;
  }
  Vec mul(int f) {
    Vec r = this.cloneV();
    r.x = r.x * f; r.y = r.y * f; r.z = r.z * f;
    return r;
  }
  Vec cloneV() {
    Vec r = new Vec();
    r.x = this.x; r.y = this.y; r.z = this.z;
    return r;
  }
  int dot(Vec o) { return this.x * o.x + this.y * o.y + this.z * o.z; }
}
class Shader {
  int[] slots;      // int array holding packed "float" values
  void init(int n) { this.slots = new int[n]; }
  void store(int i, int v) { this.slots[i] = floatToIntBits(v); }
  int load(int i) { return intBitsToFloat(this.slots[i]); }
}
class Main {
  static void main() {
    int rays = %d;
    Shader sh = new Shader();
    sh.init(16);
    int lum = 0;
    for (int r = 0; r < rays; r = r + 1) {
      Vec dir = new Vec();
      dir.x = hash(r) %% 32; dir.y = hash(r + 1) %% 32; dir.z = hash(r + 2) %% 32;
      Vec n = new Vec();
      n.x = 1; n.y = 2; n.z = 3;
      Vec h = dir.add(n).mul(2).add(dir).mul(3);   // clone chains
      int shade = h.dot(n);
      sh.store(r %% 16, shade);                     // pack
      lum = lum + sh.load(r %% 16);                 // immediately unpack
    }
    print(lum);
  }
}`, 60*scale)
		},
		Fix: &Fix{
			PaperResult: "9%–15% running time reduction",
			Text: "eliminate unnecessary clones (in-place vector arithmetic on reused objects) " +
				"and bookkeep the packed values directly to avoid back-and-forth conversions",
			Edits: []Edit{
				{`  Vec add(Vec o) {
    Vec r = this.cloneV();
    r.x = r.x + o.x; r.y = r.y + o.y; r.z = r.z + o.z;
    return r;
  }
  Vec mul(int f) {
    Vec r = this.cloneV();
    r.x = r.x * f; r.y = r.y * f; r.z = r.z * f;
    return r;
  }
  Vec cloneV() {
    Vec r = new Vec();
    r.x = this.x; r.y = this.y; r.z = this.z;
    return r;
  }
`, `  void set(Vec o) { this.x = o.x; this.y = o.y; this.z = o.z; }
  void addIn(Vec o) { this.x = this.x + o.x; this.y = this.y + o.y; this.z = this.z + o.z; }
  void mulIn(int f) { this.x = this.x * f; this.y = this.y * f; this.z = this.z * f; }
`},
				{"this.slots[i] = floatToIntBits(v);", "this.slots[i] = v;"},
				{"return intBitsToFloat(this.slots[i]);", "return this.slots[i];"},
				{`    int lum = 0;
    for (int r = 0; r < rays; r = r + 1) {
      Vec dir = new Vec();
`, `    Vec dir = new Vec();
    Vec n = new Vec();
    Vec acc = new Vec();
    int lum = 0;
    for (int r = 0; r < rays; r = r + 1) {
`},
				{`      Vec n = new Vec();
      n.x = 1; n.y = 2; n.z = 3;
      Vec h = dir.add(n).mul(2).add(dir).mul(3);   // clone chains
      int shade = h.dot(n);
`, `      n.x = 1; n.y = 2; n.z = 3;
      acc.set(dir);
      acc.addIn(n);
      acc.mulIn(2);
      acc.addIn(dir);
      acc.mulIn(3);
      int shade = acc.dot(n);
`},
			},
		},
	})

	register(&Workload{
		Name:    "tomcat",
		Profile: "mapper context array rebuilt per registration; per-request type-name comparisons",
		Plants:  []Plant{{"Mapper.addContext", 8}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// tomcat-alike: util.Mapper reallocates and copies the sorted context array
// on every add/remove, and getProperty compares type tags the slow way.
class Mapper {
  int[] contexts;
  void init() { this.contexts = new int[0]; }
  void addContext(int c) {
    int[] neu = new int[this.contexts.length + 1];  // fresh array per add
    int i = 0;
    while (i < this.contexts.length && this.contexts[i] < c) {
      neu[i] = this.contexts[i];
      i = i + 1;
    }
    neu[i] = c;
    while (i < this.contexts.length) {
      neu[i + 1] = this.contexts[i];
      i = i + 1;
    }
    this.contexts = neu;
  }
  int map(int host) {
    int lo = 0;
    int hi = this.contexts.length - 1;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (this.contexts[mid] < host) { lo = mid + 1; } else { hi = mid; }
    }
    if (this.contexts.length == 0) { return -1; }
    return this.contexts[lo];
  }
}
class PropertySource {
  int typeNameOf(int kind) {          // models Class.getName()
    return hash(kind * 77) & 1023;
  }
  int getProperty(int key, int kind) {
    // slow path: derive and compare type names per request
    int intName = this.typeNameOf(0);
    int boolName = this.typeNameOf(1);
    int longName = this.typeNameOf(2);
    int name = this.typeNameOf(kind);
    if (name == intName) { return key * 2; }
    if (name == boolName) { return key & 1; }
    if (name == longName) { return key * 4; }
    return key;
  }
}
class Main {
  static void main() {
    int requests = %d;
    Mapper m = new Mapper();
    m.init();
    PropertySource ps = new PropertySource();
    int acc = 0;
    for (int i = 0; i < requests; i = i + 1) {
      if (i %% 10 == 0) { m.addContext(i); }
      acc = acc + m.map(i %% 97);
      acc = acc + ps.getProperty(i, i %% 3);
    }
    print(acc);
  }
}`, 50*scale)
		},
		Fix: &Fix{
			PaperResult: "~2% running time reduction (3 seconds)",
			Text:        "keep two arrays and reuse them back and forth; compare type tags directly",
			Edits: []Edit{
				{`  int[] contexts;
  void init() { this.contexts = new int[0]; }
  void addContext(int c) {
    int[] neu = new int[this.contexts.length + 1];  // fresh array per add
    int i = 0;
    while (i < this.contexts.length && this.contexts[i] < c) {
      neu[i] = this.contexts[i];
      i = i + 1;
    }
    neu[i] = c;
    while (i < this.contexts.length) {
`, `  int[] contexts;
  int[] spare;
  int size;
  void init() { this.contexts = new int[0]; this.spare = new int[0]; }
  void addContext(int c) {
    int[] neu = this.spare;
    if (neu.length <= this.size) { neu = new int[2 * this.size + 2]; }
    int i = 0;
    while (i < this.size && this.contexts[i] < c) {
      neu[i] = this.contexts[i];
      i = i + 1;
    }
    neu[i] = c;
    while (i < this.size) {
`},
				{"    this.contexts = neu;\n", "    this.spare = this.contexts;\n    this.contexts = neu;\n    this.size = this.size + 1;\n"},
				{"    int hi = this.contexts.length - 1;\n", "    int hi = this.size - 1;\n"},
				{"    if (this.contexts.length == 0) { return -1; }\n", "    if (this.size == 0) { return -1; }\n"},
				{`    // slow path: derive and compare type names per request
    int intName = this.typeNameOf(0);
    int boolName = this.typeNameOf(1);
    int longName = this.typeNameOf(2);
    int name = this.typeNameOf(kind);
    if (name == intName) { return key * 2; }
    if (name == boolName) { return key & 1; }
    if (name == longName) { return key * 4; }
`, `    if (kind == 0) { return key * 2; }
    if (kind == 1) { return key & 1; }
    if (kind == 2) { return key * 4; }
`},
			},
		},
	})

	register(&Workload{
		Name:    "tradebeans",
		Profile: "ID wrapper objects + redundant database round-trips per key request",
		Plants:  []Plant{{"KeyBlock.iterator", 27}, {"AccountService.allocate", 36}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// tradebeans-alike: KeyBlock wraps plain integer ranges in objects and
// refreshes itself with database queries on every request.
class KeyBlockIter {
  KeyBlock owner;
  int cursor;
  boolean hasNext() { return this.cursor < this.owner.hi; }
  int next() {
    int v = this.cursor;
    this.cursor = this.cursor + 1;
    return v;
  }
}
class KeyBlock {
  int lo;
  int hi;
  int account;
  void refresh() {
    // redundant round-trips: two queries and an update per request
    int a = dbQuery(this.account, this.lo);
    int b = dbQuery(this.account, this.hi);
    int unused = a ^ b;                    // result ignored
    this.account = this.account;           // "update"
    if (unused == -1) { print(unused); }   // never fires
  }
  KeyBlockIter iterator() {
    KeyBlockIter it = new KeyBlockIter();
    it.owner = this;
    it.cursor = this.lo;
    return it;
  }
}
class AccountService {
  int nextId;
  int allocate(int n) {
    KeyBlock kb = new KeyBlock();
    kb.lo = this.nextId;
    kb.hi = this.nextId + n;
    kb.account = 7;
    kb.refresh();
    this.nextId = this.nextId + n;
    KeyBlockIter it = kb.iterator();
    int last = 0;
    while (it.hasNext()) { last = it.next(); }
    return last;
  }
}
class Main {
  static void main() {
    int orders = %d;
    AccountService svc = new AccountService();
    int acc = 0;
    for (int i = 0; i < orders; i = i + 1) {
      acc = acc + svc.allocate(10);
    }
    print(acc);
  }
}`, 25*scale)
		},
		Fix: &Fix{
			PaperResult: "2.5% running time reduction (350s → 341s), 2.3% fewer objects",
			Text:        "drop the redundant queries and represent the IDs with a plain int range",
			Edits: []Edit{
				{`    KeyBlock kb = new KeyBlock();
    kb.lo = this.nextId;
    kb.hi = this.nextId + n;
    kb.account = 7;
    kb.refresh();
    this.nextId = this.nextId + n;
    KeyBlockIter it = kb.iterator();
    int last = 0;
    while (it.hasNext()) { last = it.next(); }
`, `    int lo = this.nextId;
    int hi = this.nextId + n;
    this.nextId = hi;
    int last = 0;
    for (int id = lo; id < hi; id = id + 1) { last = id; }
`},
			},
		},
	})

	register(&Workload{
		Name:    "tradesoap",
		Profile: "bean conversions copying the same data between representations (convertXBean)",
		Plants:  []Plant{{"SoapLayer.toWire", 8}, {"SoapLayer.fromWire", 17}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// tradesoap-alike: the SOAP path converts each bean through wire and back,
// copying every field twice per hop.
class QuoteBean { int symbol; int price; int volume; int low; int high; }
class WireQuote { int symbol; int price; int volume; int low; int high; }
class SoapLayer {
  WireQuote toWire(QuoteBean q) {
    WireQuote w = new WireQuote();
    w.symbol = q.symbol;
    w.price = q.price;
    w.volume = q.volume;
    w.low = q.low;
    w.high = q.high;
    return w;
  }
  QuoteBean fromWire(WireQuote w) {
    QuoteBean q = new QuoteBean();
    q.symbol = w.symbol;
    q.price = w.price;
    q.volume = w.volume;
    q.low = w.low;
    q.high = w.high;
    return q;
  }
}
class Main {
  static void main() {
    int calls = %d;
    SoapLayer soap = new SoapLayer();
    int acc = 0;
    for (int i = 0; i < calls; i = i + 1) {
      QuoteBean q = new QuoteBean();
      q.symbol = i %% 500;
      q.price = hash(i) %% 10000;
      q.volume = hash(i + 1) %% 1000;
      q.low = q.price - 5;
      q.high = q.price + 5;
      WireQuote w = soap.toWire(q);         // copy out
      QuoteBean back = soap.fromWire(w);    // copy back
      int res = dbQuery(back.symbol, back.price);
      acc = acc + (res & 15) + back.volume;
    }
    print(acc);
  }
}`, 40*scale)
		},
	})
}
