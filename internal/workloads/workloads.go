// Package workloads provides the 18 synthetic benchmark programs that stand
// in for the DaCapo suite in Table 1 of the paper. Each workload is an MJ
// program named after its DaCapo counterpart and engineered to exhibit the
// bloat profile the paper reports for that program: chart populates
// containers only to take their sizes, bloat builds debug strings guarded by
// never-true predicates, eclipse drives visitor objects and rehashing
// hashtables, sunflow clones vectors per operation and round-trips floats
// through bit packing, and so on.
//
// Programs are parameterized by a scale factor so tests can run small and
// the Table 1 harness can run large. The absolute numbers differ from the
// paper's JVM measurements (our substrate is an interpreter, not a 1.99 GHz
// testbed); the shapes — which workloads have high IPD, how graph size
// relates to trace length — are what the reproduction preserves.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"lowutil/internal/ir"
	"lowutil/internal/mjc"
)

// Workload is one synthetic benchmark.
type Workload struct {
	// Name matches the DaCapo program it models.
	Name string
	// Profile is a one-line description of the planted bloat profile.
	Profile string
	// Source renders the MJ program at the given scale (≥ 1).
	Source func(scale int) string
	// Plants name the planted low-utility structures by allocation site;
	// a workload that plants none names none.
	Plants []Plant
	// Fix is the paper's fix of the planted bloat, for the six workloads
	// with a §4.2 case study; nil for the others.
	Fix *Fix
}

// Plant is a planted allocation site: every new or new[] that Method
// (qualified, "Class.method") performs on Line of the rendered source.
// Scale changes no line, so a plant names the same sites at every scale.
type Plant struct {
	Method string
	Line   int
}

// Fix is one §4.2 case study: the paper's result and fix, and the fix
// itself as exact replacements over the workload's rendered source. The
// edits change the code the fix names and its call sites; a class or
// method the fix leaves unused stays in the source.
type Fix struct {
	// PaperResult quotes the paper's measured improvement; Text names the
	// change the paper made.
	PaperResult, Text string
	// Edits apply in order; each Old occurs exactly once in the source it
	// applies to.
	Edits []Edit
}

// Edit replaces Old with New.
type Edit struct{ Old, New string }

// registry holds all workloads, keyed by name.
var registry = map[string]*Workload{}

func register(w *Workload) { registry[w.Name] = w }

// All returns every workload in a stable order (the paper's Table 1 order).
func All() []*Workload {
	order := []string{
		"antlr", "bloat", "chart", "fop", "pmd", "jython", "xalan", "hsqldb",
		"luindex", "lusearch", "eclipse", "avrora", "batik", "derby",
		"sunflow", "tomcat", "tradebeans", "tradesoap",
	}
	out := make([]*Workload, 0, len(order))
	for _, name := range order {
		if w, ok := registry[name]; ok {
			out = append(out, w)
		}
	}
	// Catch stragglers registered outside the canonical order.
	if len(out) != len(registry) {
		seen := map[string]bool{}
		for _, w := range out {
			seen[w.Name] = true
		}
		var extra []*Workload
		for name, w := range registry {
			if !seen[name] {
				extra = append(extra, w)
			}
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i].Name < extra[j].Name })
		out = append(out, extra...)
	}
	return out
}

// ByName returns a workload or nil.
func ByName(name string) *Workload { return registry[name] }

// FixedSource renders the program with the paper's fix applied. It fails
// on a workload without a Fix, and on an edit whose Old does not occur
// exactly once.
func (w *Workload) FixedSource(scale int) (string, error) {
	if w.Fix == nil {
		return "", fmt.Errorf("workload %s has no fix", w.Name)
	}
	src := w.Source(scale)
	for i, e := range w.Fix.Edits {
		if n := strings.Count(src, e.Old); n != 1 {
			return "", fmt.Errorf("workload %s: fix edit %d matches %d times, want once", w.Name, i, n)
		}
		src = strings.Replace(src, e.Old, e.New, 1)
	}
	return src, nil
}

// PlantSites returns the allocation-site indices of w's plants in prog, a
// compilation of w.Source. It fails on a plant that names no allocation.
func (w *Workload) PlantSites(prog *ir.Program) (map[int]bool, error) {
	sites := map[int]bool{}
	for _, p := range w.Plants {
		found := false
		for _, in := range prog.AllocSites {
			if in.Line == p.Line && in.Method.QualifiedName() == p.Method {
				sites[in.AllocSite], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("workload %s: plant %s line %d allocates nothing", w.Name, p.Method, p.Line)
		}
	}
	return sites, nil
}

// Compile compiles the workload at the given scale.
func (w *Workload) Compile(scale int) (*ir.Program, error) {
	if scale < 1 {
		scale = 1
	}
	prog, err := mjc.Compile(w.Source(scale))
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return prog, nil
}

func init() {
	register(&Workload{
		Name:    "antlr",
		Profile: "recursive-descent parsing over generated token streams; token objects are consumed",
		Source: func(scale int) string {
			return fmt.Sprintf(`
// antlr-alike: tokenize synthetic arithmetic sentences and evaluate them
// with a recursive-descent parser. Tokens and parse frames are short-lived
// but their values feed the final sums, so utility is mostly high.
class TokenStream {
  int[] kinds;   // 0 num, 1 plus, 2 star, 3 lparen, 4 rparen, 5 eof
  int[] vals;
  int pos;
  int n;
  void fill(int seed, int len) {
    this.kinds = new int[len + 1];
    this.vals = new int[len + 1];
    int i = 0;
    int s = seed;
    while (i < len) {
      s = hash(s + i);
      int r = s %% 5;
      if (r < 0) { r = -r; }
      if (i %% 2 == 0) {
        this.kinds[i] = 0;
        this.vals[i] = r + 1;
      } else {
        if (r %% 2 == 0) { this.kinds[i] = 1; } else { this.kinds[i] = 2; }
      }
      i = i + 1;
    }
    this.kinds[len] = 5;
    this.n = len + 1;
    this.pos = 0;
  }
  int peek() { return this.kinds[this.pos]; }
  int val() { return this.vals[this.pos]; }
  void advance() { this.pos = this.pos + 1; }
}
class Parser {
  TokenStream ts;
  int parseExpr() {
    int left = this.parseTerm();
    while (this.ts.peek() == 1) {
      this.ts.advance();
      int right = this.parseTerm();
      left = left + right;
    }
    return left;
  }
  int parseTerm() {
    int left = this.parseAtom();
    while (this.ts.peek() == 2) {
      this.ts.advance();
      int right = this.parseAtom();
      left = left * right;
    }
    return left;
  }
  int parseAtom() {
    int v = 0;
    if (this.ts.peek() == 0) { v = this.ts.val(); this.ts.advance(); }
    return v;
  }
}
class Main {
  static void main() {
    int sentences = %d;
    int total = 0;
    TokenStream ts = new TokenStream();
    Parser p = new Parser();
    p.ts = ts;
    for (int i = 0; i < sentences; i = i + 1) {
      ts.fill(i * 7 + 3, 41);
      total = total + p.parseExpr();
    }
    print(total);
  }
}`, 60*scale)
		},
	})

	register(&Workload{
		Name:    "bloat",
		Profile: "debug strings built for never-true asserts; comparator objects per node pair (high IPD)",
		Plants:  []Plant{{"CharBuf.init", 8}, {"Node.describe", 29}, {"NodeComparator.compare", 44}, {"NodeComparator.compare", 47}, {"Main.main", 73}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// bloat-alike: every AST node operation builds a toString-style char buffer
// that only flows into a debug check that never fires, and tree comparisons
// allocate a fresh NodeComparator per node pair.
class CharBuf {
  int[] chars;
  int len;
  void init(int cap) { this.chars = new int[cap]; this.len = 0; }
  void append(int c) {
    if (this.len < this.chars.length) {
      this.chars[this.len] = c;
      this.len = this.len + 1;
    }
  }
  void appendInt(int v) {
    if (v == 0) { this.append(48); return; }
    if (v < 0) { this.append(45); v = -v; }
    int rev = 0;
    while (v > 0) { rev = rev * 10 + v %% 10; v = v / 10; }
    while (rev > 0) { this.append(48 + rev %% 10); rev = rev / 10; }
  }
}
class Node {
  int kind;
  int value;
  Node left;
  Node right;
  CharBuf describe() {           // the bloat: built on every visit
    CharBuf sb = new CharBuf();
    sb.init(32);
    sb.append(110); sb.append(111); sb.append(100); sb.append(101);
    sb.appendInt(this.kind);
    sb.append(58);
    sb.appendInt(this.value);
    return sb;
  }
}
class NodeComparator {          // allocated per pair, holds no data
  int compare(Node a, Node b) {
    if (a == null && b == null) { return 0; }
    if (a == null) { return -1; }
    if (b == null) { return 1; }
    if (a.value != b.value) { return a.value - b.value; }
    NodeComparator lc = new NodeComparator();
    int l = lc.compare(a.left, b.left);
    if (l != 0) { return l; }
    NodeComparator rc = new NodeComparator();
    return rc.compare(a.right, b.right);
  }
}
class Builder {
  Node build(int depth, int seed) {
    if (depth == 0) { return null; }
    Node n = new Node();
    n.kind = seed %% 7;
    n.value = hash(seed) %% 1000;
    n.left = this.build(depth - 1, seed * 2 + 1);
    n.right = this.build(depth - 1, seed * 2 + 2);
    return n;
  }
}
class Main {
  static void main() {
    boolean debugging = false;
    int rounds = %d;
    Builder bld = new Builder();
    int acc = 0;
    for (int r = 0; r < rounds; r = r + 1) {
      int traceSeq = r * 8191 + 17;            // trace id for disabled logging
      traceSeq = (traceSeq ^ (r * 31)) %% 65536;
      Node t1 = bld.build(5, r + 1);
      Node t2 = bld.build(5, r + 2);
      NodeComparator cmp = new NodeComparator();
      int c = cmp.compare(t1, t2);
      acc = acc + c;
      CharBuf msg = t1.describe();          // dead unless debugging
      if (debugging) { print(msg.len); }    // never true in production
    }
    print(acc);
  }
}`, 12*scale)
		},
		Fix: &Fix{
			PaperResult: "37% running time reduction, 68% fewer objects",
			Text: "construct the debug strings only under the debug flag and reuse a single " +
				"comparator via recursion on this",
			Edits: []Edit{
				{`    NodeComparator lc = new NodeComparator();
    int l = lc.compare(a.left, b.left);
`, "    int l = this.compare(a.left, b.left);\n"},
				{`    NodeComparator rc = new NodeComparator();
    return rc.compare(a.right, b.right);
`, "    return this.compare(a.right, b.right);\n"},
				{"    int acc = 0;\n", "    NodeComparator cmp = new NodeComparator();\n    int acc = 0;\n"},
				{"      NodeComparator cmp = new NodeComparator();\n", ""},
				{`      CharBuf msg = t1.describe();          // dead unless debugging
      if (debugging) { print(msg.len); }    // never true in production
`, `      if (debugging) {
        CharBuf msg = t1.describe();
        print(msg.len);
      }
`},
			},
		},
	})

	register(&Workload{
		Name:    "chart",
		Profile: "lists populated with point structures only to read their sizes (the paper's motivating example)",
		Plants:  []Plant{{"Series.init", 12}, {"Main.main", 25}, {"Main.main", 28}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// chart-alike: datasets are assembled from expensively computed points, but
// the renderer only ever asks each series for its size to lay out axes.
class Point {
  int x;
  int y;
  int style;
}
class Series {
  Point[] items;
  int size;
  void init(int cap) { this.items = new Point[cap]; this.size = 0; }
  void add(Point p) {
    this.items[this.size] = p;
    this.size = this.size + 1;
  }
  int count() { return this.size; }
}
class Main {
  static void main() {
    int nSeries = %d;
    int perSeries = 80;
    int axisUnits = 0;
    for (int s = 0; s < nSeries; s = s + 1) {
      Series ser = new Series();
      ser.init(perSeries);
      for (int i = 0; i < perSeries; i = i + 1) {
        Point p = new Point();
        p.x = hash(s * 1000 + i) %% 640;       // "expensive" coordinate math
        p.y = hash(s * 2000 + i * 3) %% 480;
        p.style = (p.x ^ p.y) & 15;
        ser.add(p);
      }
      axisUnits = axisUnits + ser.count();     // only the size is used
    }
    print(axisUnits);
  }
}`, 10*scale)
		},
	})

	register(&Workload{
		Name:    "fop",
		Profile: "layout tree with fully consumed box metrics (low IPD)",
		Source: func(scale int) string {
			return fmt.Sprintf(`
// fop-alike: a block/inline layout tree where every computed width and
// height feeds the parent's layout — high-utility data structures.
class Box {
  int width;
  int height;
  Box firstChild;
  Box nextSibling;
  void layout(int avail) {
    int w = 0;
    int h = 0;
    Box c = this.firstChild;
    while (c != null) {
      c.layout(avail - 2);
      if (c.width > w) { w = c.width; }
      h = h + c.height;
      c = c.nextSibling;
    }
    this.width = w + 2;
    this.height = h + 1;
  }
}
class TreeGen {
  Box gen(int depth, int fanout, int seed) {
    Box b = new Box();
    if (depth == 0) {
      b.width = hash(seed) %% 40 + 1;
      b.height = hash(seed + 1) %% 12 + 1;
      return b;
    }
    Box prev = null;
    for (int i = 0; i < fanout; i = i + 1) {
      Box c = this.gen(depth - 1, fanout, seed * fanout + i);
      c.nextSibling = prev;
      prev = c;
    }
    b.firstChild = prev;
    return b;
  }
}
class Main {
  static void main() {
    int pages = %d;
    TreeGen g = new TreeGen();
    int totalHeight = 0;
    for (int p = 0; p < pages; p = p + 1) {
      Box root = g.gen(4, 3, p + 17);
      root.layout(600);
      totalHeight = totalHeight + root.height;
      print(root.width);
    }
    print(totalHeight);
  }
}`, 12*scale)
		},
	})

	register(&Workload{
		Name:    "pmd",
		Profile: "rule predicates dominate: most computed values end in control decisions (high IPP)",
		Source: func(scale int) string {
			return fmt.Sprintf(`
// pmd-alike: static-analysis rules walk synthetic ASTs; nearly all node
// metrics are computed to be compared against rule thresholds.
class AstNode {
  int kind;
  int complexity;
  int lineCount;
  AstNode[] children;
  int nChildren;
}
class RuleEngine {
  int violations;
  void check(AstNode n) {
    int score = n.complexity * 3 + n.lineCount;
    int depthPenalty = n.nChildren * 2;
    int cyclo = score + depthPenalty;
    if (cyclo > 2000) { this.violations = this.violations + 1; }
    int nameLen = hash(n.kind) %% 40;
    if (nameLen > 38) { this.violations = this.violations + 1; }
    int braces = n.lineCount - n.nChildren;
    if (braces < -500) { this.violations = this.violations + 1; }
    for (int i = 0; i < n.nChildren; i = i + 1) {
      this.check(n.children[i]);
    }
  }
}
class AstGen {
  AstNode gen(int depth, int seed) {
    AstNode n = new AstNode();
    n.kind = seed %% 30;
    n.complexity = hash(seed) %% 20;
    n.lineCount = hash(seed + 7) %% 100;
    int fan = 0;
    if (depth > 0) { fan = 3; }
    n.children = new AstNode[fan];
    n.nChildren = fan;
    for (int i = 0; i < fan; i = i + 1) {
      n.children[i] = this.gen(depth - 1, seed * 5 + i);
    }
    return n;
  }
}
class Main {
  static void main() {
    int files = %d;
    AstGen g = new AstGen();
    RuleEngine re = new RuleEngine();
    for (int f = 0; f < files; f = f + 1) {
      int progressPct = f * 100 / files;       // progress meter, reporting off
      AstNode root = g.gen(4, f + 23);
      re.check(root);
    }
    print(re.violations);
  }
}`, 8*scale)
		},
	})

	register(&Workload{
		Name:    "jython",
		Profile: "bytecode-interpreter loop; stack values are consumed by subsequent ops",
		Source: func(scale int) string {
			return fmt.Sprintf(`
// jython-alike: a tiny stack VM interpreting generated programs. Every
// pushed value is popped and used, so utility is high.
class Frame {
  int[] stack;
  int sp;
  int[] locals;
  void init(int depth, int nlocals) {
    this.stack = new int[depth];
    this.sp = 0;
    this.locals = new int[nlocals];
  }
  void push(int v) { this.stack[this.sp] = v; this.sp = this.sp + 1; }
  int pop() { this.sp = this.sp - 1; return this.stack[this.sp]; }
}
class Interp {
  int run(int[] code, Frame f) {
    int pc = 0;
    while (pc < code.length) {
      int op = code[pc] & 7;
      if (op == 0) { f.push(code[pc] >> 3); }
      else if (op == 1) { int b = f.pop(); int a = f.pop(); f.push(a + b); }
      else if (op == 2) { int b = f.pop(); int a = f.pop(); f.push(a * b); }
      else if (op == 3) { int v = f.pop(); f.locals[(code[pc] >> 3) %% f.locals.length] = v; }
      else if (op == 4) { f.push(f.locals[(code[pc] >> 3) %% f.locals.length]); }
      else { f.push(f.pop() ^ (code[pc] >> 3)); }
      pc = pc + 1;
    }
    if (f.sp > 0) { return f.pop(); }
    return 0;
  }
}
class CodeGen {
  int[] gen(int len, int seed) {
    int[] code = new int[len];
    // Guarantee stack discipline: alternate pushes and combining ops.
    for (int i = 0; i < len; i = i + 1) {
      int h = hash(seed + i);
      if (h < 0) { h = -h; }
      if (i %% 3 == 2) { code[i] = (h & (255 << 3)) | 1; }  // add
      else { code[i] = (h & (255 << 3)) | 0;  }             // push
    }
    return code;
  }
}
class Main {
  static void main() {
    int programs = %d;
    CodeGen cg = new CodeGen();
    Interp vm = new Interp();
    int acc = 0;
    for (int i = 0; i < programs; i = i + 1) {
      int[] code = cg.gen(90, i * 31 + 5);
      Frame f = new Frame();
      f.init(128, 8);
      acc = acc + vm.run(code, f);
    }
    print(acc);
  }
}`, 12*scale)
		},
	})

	register(&Workload{
		Name:    "xalan",
		Profile: "document transformation copying values between node representations (copy-heavy)",
		Plants:  []Plant{{"Pipeline.toDom", 11}, {"Pipeline.toOut", 23}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// xalan-alike: each transform stage copies node payloads into a new
// representation, doing little computation per hop — classic copy bloat.
class SrcNode { int tag; int text; SrcNode next; }
class DomNode { int tag; int text; DomNode next; }
class OutNode { int tag; int text; OutNode next; }
class Pipeline {
  DomNode toDom(SrcNode s) {
    DomNode head = null;
    while (s != null) {
      DomNode d = new DomNode();
      d.tag = s.tag;        // pure copies
      d.text = s.text;
      d.next = head;
      head = d;
      s = s.next;
    }
    return head;
  }
  OutNode toOut(DomNode d) {
    OutNode head = null;
    while (d != null) {
      OutNode o = new OutNode();
      o.tag = d.tag;
      o.text = d.text;
      o.next = head;
      head = o;
      d = d.next;
    }
    return head;
  }
  int serialize(OutNode o) {
    int bytes = 0;
    while (o != null) {
      bytes = bytes + (o.tag & 7) + (o.text & 63);
      o = o.next;
    }
    return bytes;
  }
}
class DocGen {
  SrcNode gen(int len, int seed) {
    SrcNode head = null;
    for (int i = 0; i < len; i = i + 1) {
      SrcNode s = new SrcNode();
      s.tag = hash(seed + i) %% 12;
      s.text = hash(seed + i * 3) %% 1000;
      s.next = head;
      head = s;
    }
    return head;
  }
}
class Main {
  static void main() {
    int docs = %d;
    DocGen g = new DocGen();
    Pipeline p = new Pipeline();
    int total = 0;
    for (int i = 0; i < docs; i = i + 1) {
      int stageTicks = i * 3 + 11;             // stage timing, never reported
      stageTicks = stageTicks * stageTicks %% 8191;
      SrcNode src = g.gen(70, i * 13 + 1);
      DomNode dom = p.toDom(src);
      OutNode out = p.toOut(dom);
      total = total + p.serialize(out);
    }
    print(total);
  }
}`, 10*scale)
		},
	})

	register(&Workload{
		Name:    "hsqldb",
		Profile: "in-memory table with some dead (never-queried) columns",
		Plants:  []Plant{{"Table.insert", 16}},
		Source: func(scale int) string {
			return fmt.Sprintf(`
// hsqldb-alike: rows carry several columns; queries touch the key and one
// payload column, leaving audit columns dead.
class Row {
  int key;
  int balance;
  int auditA;    // maintained but never queried
  int auditB;
  Row next;
}
class Table {
  Row[] buckets;
  int size;
  void init(int n) { this.buckets = new Row[n]; this.size = 0; }
  void insert(int key, int balance, int seed) {
    Row r = new Row();
    r.key = key;
    r.balance = balance;
    r.auditA = hash(seed) %% 100000;        // dead column work
    r.auditB = hash(seed * 3 + 1) %% 100000;
    int b = key %% this.buckets.length;
    if (b < 0) { b = -b; }
    r.next = this.buckets[b];
    this.buckets[b] = r;
    this.size = this.size + 1;
  }
  int lookup(int key) {
    int b = key %% this.buckets.length;
    if (b < 0) { b = -b; }
    Row r = this.buckets[b];
    while (r != null) {
      if (r.key == key) { return r.balance; }
      r = r.next;
    }
    return 0;
  }
}
class Main {
  static void main() {
    int txns = %d;
    Table t = new Table();
    t.init(64);
    int total = 0;
    for (int i = 0; i < txns; i = i + 1) {
      int txnTag = (i * 48271) %% 1000000;     // txn tag for an audit log that is off
      t.insert(i, i * 17 %% 991, i + 41);
      total = total + t.lookup(i / 2);
    }
    print(total);
    print(t.size);
  }
}`, 120*scale)
		},
	})

	register(&Workload{
		Name:    "luindex",
		Profile: "inverted-index construction; postings are later read by lusearch-style scans",
		Source: func(scale int) string {
			return fmt.Sprintf(`
// luindex-alike: documents are tokenized into term IDs and posting lists
// are built, then compacted — most stored data is revisited.
class Posting { int doc; int freq; Posting next; }
class Index {
  Posting[] terms;
  int[] counts;
  void init(int vocab) {
    this.terms = new Posting[vocab];
    this.counts = new int[vocab];
  }
  void add(int term, int doc) {
    Posting p = this.terms[term];
    if (p != null && p.doc == doc) {
      p.freq = p.freq + 1;
      return;
    }
    Posting np = new Posting();
    np.doc = doc;
    np.freq = 1;
    np.next = this.terms[term];
    this.terms[term] = np;
    this.counts[term] = this.counts[term] + 1;
  }
  int totalPostings() {
    int t = 0;
    for (int i = 0; i < this.counts.length; i = i + 1) { t = t + this.counts[i]; }
    return t;
  }
}
class Main {
  static void main() {
    int docs = %d;
    int vocab = 97;
    int tokensPerDoc = 60;
    Index idx = new Index();
    idx.init(vocab);
    for (int d = 0; d < docs; d = d + 1) {
      for (int t = 0; t < tokensPerDoc; t = t + 1) {
        int tokenSeq = t * 7 + 3;              // per-token seq for a disabled trace
        int h = hash(d * 1000 + t);
        if (h < 0) { h = -h; }
        idx.add(h %% vocab, d);
      }
    }
    print(idx.totalPostings());
  }
}`, 15*scale)
		},
	})
}
