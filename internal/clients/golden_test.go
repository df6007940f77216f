package clients_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lowutil/internal/clients"
	"lowutil/internal/depgraph"
	"lowutil/internal/escape"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
	"lowutil/internal/taint"
	"lowutil/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/clients.golden")

// engines are the two dispatch paths every client must agree on.
var engines = []struct {
	name string
	run  func(*interp.Machine) error
}{
	{"Run", (*interp.Machine).Run},
	{"RunReference", (*interp.Machine).RunReference},
}

// exampleSource returns the MJ program of examples/<name>/main.go, the
// raw string its `const src` holds.
func exampleSource(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", name, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "const src = `")
	src, _, ok2 := strings.Cut(rest, "`")
	if !ok || !ok2 {
		t.Fatalf("examples/%s: no const src", name)
	}
	return src
}

// typestateProtocol is the File protocol of examples/typestate.
func typestateProtocol() *clients.Protocol {
	p := &clients.Protocol{
		NumStates:   4,
		StateNames:  []string{"uninitialized", "open-empty", "open-nonempty", "closed"},
		Transitions: make(map[clients.StateMethod]clients.State),
	}
	for _, tr := range []struct {
		from   clients.State
		method string
		to     clients.State
	}{
		{0, "create", 1}, {1, "put", 2}, {2, "put", 2}, {1, "get", 1},
		{2, "get", 2}, {1, "close", 3}, {2, "close", 3},
	} {
		p.Transitions[clients.StateMethod{From: tr.from, Method: tr.method}] = tr.to
	}
	return p
}

// traced runs prog on a fresh machine under tr with the given engine.
func traced(prog *ir.Program, tr interp.Tracer, run func(*interp.Machine) error) (*interp.Machine, error) {
	m := interp.New(prog)
	m.Tracer = tr
	return m, run(m)
}

// clientOutputs renders every tracer client's output, run on one engine:
// the null diagnosis of examples/nullorigin, the typestate violations of
// examples/typestate, and, on each of the 18 workloads at scale 1, the
// copy chains, constant predicates, silent overwrites, method costs,
// escaped allocation sites, the null and copy graphs and the taint costs.
func clientOutputs(t *testing.T, run func(*interp.Machine) error) string {
	t.Helper()
	var b strings.Builder

	prog, err := mjc.Compile(exampleSource(t, "nullorigin"))
	if err != nil {
		t.Fatal(err)
	}
	nt := clients.NewNullTracker(prog)
	_, err = traced(prog, nt, run)
	rep, ok := nt.Diagnose(err)
	if !ok {
		t.Fatalf("nullorigin: undiagnosed error %v", err)
	}
	fmt.Fprintf(&b, "== nullorigin\n%s\n", rep)

	prog, err = mjc.Compile(exampleSource(t, "typestate"))
	if err != nil {
		t.Fatal(err)
	}
	var sites []int
	for _, in := range prog.Instrs {
		if in.Op == ir.OpNew && in.Class().Name == "File" {
			sites = append(sites, int(in.AllocSite))
		}
	}
	ts := clients.NewTypestateTracker(prog, typestateProtocol(), sites...)
	if _, err := traced(prog, ts, run); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== typestate\n")
	for _, v := range ts.Violations {
		b.WriteString(v.String())
	}

	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", w.Name)
		b.WriteString(workloadOutputs(t, prog, run))
	}
	return b.String()
}

// workloadOutputs renders the seven workload clients' outputs on prog.
func workloadOutputs(t *testing.T, prog *ir.Program, run func(*interp.Machine) error) string {
	t.Helper()
	var b strings.Builder
	cp := clients.NewCopyProfiler(prog)
	pt := clients.NewPredicateTracker(prog)
	rw := clients.NewRewriteTracker(prog)
	mc := clients.NewMethodCostTracker(profiler.New(prog, profiler.Options{Slots: 16}))
	obs := escape.NewObserver()
	nt := clients.NewNullTracker(prog)
	tt := &printedCosts{Tracker: taint.New(prog), h: sha256.New()}
	for _, tr := range []interp.Tracer{cp, pt, rw, mc, obs, nt, tt} {
		if _, err := traced(prog, tr, run); err != nil {
			t.Fatalf("%T: %v", tr, err)
		}
	}
	fmt.Fprintf(&b, "-- copies: %d\n%s", cp.TotalCopies, clients.FormatChains(cp.Chains(), 1<<30))
	fmt.Fprintf(&b, "-- constant predicates\n")
	for _, c := range pt.Constants(1) {
		fmt.Fprintf(&b, "%s\n", c)
	}
	fmt.Fprintf(&b, "-- silent overwrites\n")
	for _, r := range rw.Report(1) {
		fmt.Fprintf(&b, "%s\n", r)
	}
	b.WriteString(methodCosts(mc))
	fmt.Fprintf(&b, "-- escaped sites\n%v\n", obs.EscapedSites())
	fmt.Fprintf(&b, "-- null graph: %s\n", graphDigest(nt.G))
	fmt.Fprintf(&b, "-- copy graph: %s\n", graphDigest(cp.G))
	fmt.Fprintf(&b, "-- taint: overflowed %v, printed costs sha256 %x\n", tt.Overflowed, tt.h.Sum(nil))
	return b.String()
}

// graphDigest renders g's node count, dep-edge count and total frequency,
// and a sha256 of its sorted node list: each node's instruction ID, d,
// frequency and deps.
func graphDigest(g *depgraph.Graph) string {
	var lines []string
	g.Nodes(func(n *depgraph.Node) {
		var deps []string
		n.Deps(func(d *depgraph.Node) { deps = append(deps, d.String()) })
		sort.Strings(deps)
		lines = append(lines, fmt.Sprintf("%d %d %d %v", n.In.ID, n.D, n.Freq(), deps))
	})
	sort.Strings(lines)
	return fmt.Sprintf("%d nodes, %d edges, %d events, sha256 %x",
		g.NumNodes(), g.NumDepEdges(), g.TotalFreq(), sha256.Sum256([]byte(strings.Join(lines, "\n"))))
}

// printedCosts is a taint tracker that hashes, at every native call, the
// cost of each argument: the taint cost of every printed value.
type printedCosts struct {
	*taint.Tracker
	h hash.Hash
}

// Native implements interp.Tracer.
func (p *printedCosts) Native(in *ir.Instr, fr *interp.Frame) {
	for _, a := range in.Args() {
		p.h.Write(binary.LittleEndian.AppendUint64(nil, p.CostOf(fr, int(a))))
	}
	p.Tracker.Native(in, fr)
}

// methodCosts renders a method-cost report.
func methodCosts(mc *clients.MethodCostTracker) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- method costs\n")
	for _, c := range mc.MethodCosts() {
		fmt.Fprintf(&b, "%s %.6g %d\n", c.Method.QualifiedName(), c.RelCost, c.Returns)
	}
	return b.String()
}

// TestClientGolden pins every tracer client's output, on both dispatch
// paths, to testdata/clients.golden. Regenerate after an intended change
// with: go test ./internal/clients -run TestClientGolden -update
func TestClientGolden(t *testing.T) {
	path := filepath.Join("testdata", "clients.golden")
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			got := clientOutputs(t, e.run)
			if *update && e.name == "Run" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("client outputs differ from %s:\n%s", path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// lateReturn runs past interp.DetachSteps in work before it first calls
// late, so a detached run would reach late's return only through the
// consumer.
const lateReturn = `
class Main {
  static int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + i % 7; }
    return s;
  }
  static int late(int x) { return x * 2 + 1; }
  static void main() { print(late(work(100000))); }
}`

// TestMethodCostIgnoresDetach runs the method-cost tracker on a program
// that returns a value for the first time past interp.DetachSteps. Its
// report must equal the reference engine's, which never detaches, whatever
// GOMAXPROCS is (check.sh runs it at -cpu 1,2): a wrapper that overrides a
// hook must not hand its run to the bare profiler's detached log, whose
// consumer would skip the override.
func TestMethodCostIgnoresDetach(t *testing.T) {
	prog, err := mjc.Compile(lateReturn)
	if err != nil {
		t.Fatal(err)
	}
	var out [2]string
	for i, e := range engines {
		mc := clients.NewMethodCostTracker(profiler.New(prog, profiler.Options{Slots: 16}))
		m, err := traced(prog, mc, e.run)
		if err != nil {
			t.Fatal(err)
		}
		if m.Steps < 2*interp.DetachSteps {
			t.Fatalf("%d steps, want at least %d", m.Steps, 2*interp.DetachSteps)
		}
		out[i] = methodCosts(mc)
	}
	if out[0] != out[1] || !strings.Contains(out[0], "Main.late") {
		t.Errorf("method costs at GOMAXPROCS %d differ from the reference engine's:\n%s\nwant\n%s",
			runtime.GOMAXPROCS(0), out[0], out[1])
	}
}
