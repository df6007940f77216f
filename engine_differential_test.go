// Differential proof that the product engine — handler-table dispatch with
// inline caches — is observationally identical to the reference switch
// dispatch (interp.Machine.RunReference) under the same profiler options:
// equal Gcost encoding, step count and context conflict ratio, and
// therefore byte-identical profile reports, serialized profiles, multi-hop
// slices, and client-analysis stats on every workload. Also race checks
// that concurrent profiles share no state and that concurrent queries on
// one profile need no lock, and a fuzz harness for inline-cache
// invalidation under receiver-class rebinding.
package lowutil

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/interp"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// diffWorkloads is the sweep list: all 18 workloads, trimmed to a spread of
// dispatch-heavy ones under -short so the -race pass stays fast.
func diffWorkloads(t testing.TB) []*workloads.Workload {
	all := workloads.All()
	if !testing.Short() {
		return all
	}
	var subset []*workloads.Workload
	for _, w := range all {
		switch w.Name {
		case "chart", "bloat", "eclipse", "tradebeans":
			subset = append(subset, w)
		}
	}
	if len(subset) == 0 {
		t.Fatal("short subset selected no workloads")
	}
	return subset
}

func compileWorkload(t testing.TB, w *workloads.Workload, scale int) *Program {
	t.Helper()
	prog, err := Compile(w.Source(scale))
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return prog
}

// profileOutputs captures every engine-sensitive output the CLI can print
// for a profile: the ranked report, the serialized profile bytes, the
// multi-hop slice report, and the client-analysis stats.
func profileOutputs(t testing.TB, profile *Profile) (report, saved, multihop, stats string) {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var mh strings.Builder
	for i, f := range profile.TopStructuresMultiHop(10, 2) {
		fmt.Fprintf(&mh, "%3d. %s\n", i+1, f)
	}
	gs := profile.GraphStats()
	ds := profile.Deadness()
	return profile.Report(DefaultTop), buf.String(), mh.String(),
		fmt.Sprintf("%+v %+v steps=%d", gs, ds, profile.Steps())
}

// productProfile profiles prog through the facade with default options.
func productProfile(t testing.TB, prog *Program) *Profile {
	t.Helper()
	profile, err := prog.ProfileContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return profile
}

// referenceProfile profiles prog on the reference switch-dispatch engine
// under the profiler options ProfileContext uses by default.
func referenceProfile(t testing.TB, prog *Program) *Profile {
	t.Helper()
	prof := profiler.New(prog.prog, profiler.Options{Slots: DefaultSlots, TrackCR: true})
	m := interp.New(prog.prog)
	m.Tracer = prof
	if err := m.RunReference(); err != nil {
		t.Fatal(err)
	}
	return &Profile{
		prog:   prog.prog,
		prof:   prof,
		steps:  m.Steps,
		an:     costben.NewAnalysis(prof.G),
		height: DefaultTreeHeight,
	}
}

// sameProfile compares a product profile with a reference one: first the
// inputs every report is rendered from (Gcost encoding, step count, context
// conflict ratio), then the rendered outputs themselves.
func sameProfile(t testing.TB, product, ref *Profile) {
	t.Helper()
	var pg, rg bytes.Buffer
	if err := product.prof.G.Encode(&pg); err != nil {
		t.Fatal(err)
	}
	if err := ref.prof.G.Encode(&rg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pg.Bytes(), rg.Bytes()) {
		t.Errorf("Gcost encoding differs (%d vs %d bytes)", pg.Len(), rg.Len())
	}
	if product.steps != ref.steps {
		t.Errorf("steps differ: product %d, reference %d", product.steps, ref.steps)
	}
	if pcr, rcr := product.prof.CR().AverageCR(), ref.prof.CR().AverageCR(); pcr != rcr {
		t.Errorf("context conflict ratio differs: product %v, reference %v", pcr, rcr)
	}
	report, saved, multihop, stats := profileOutputs(t, product)
	rreport, rsaved, rmultihop, rstats := profileOutputs(t, ref)
	if report != rreport {
		t.Errorf("report differs:\n--- product ---\n%s\n--- reference ---\n%s", report, rreport)
	}
	if saved != rsaved {
		t.Errorf("serialized profile differs (%d vs %d bytes)", len(saved), len(rsaved))
	}
	if multihop != rmultihop {
		t.Errorf("multi-hop slice differs:\n--- product ---\n%s\n--- reference ---\n%s", multihop, rmultihop)
	}
	if stats != rstats {
		t.Errorf("stats differ: product %q vs reference %q", stats, rstats)
	}
}

// TestEngineDifferentialAllWorkloads proves the product engine and the
// reference engine produce byte-identical profiles on every workload. Any
// divergence in dispatch order, inline-cache fills, or tracer event order
// would surface here.
func TestEngineDifferentialAllWorkloads(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			prog := compileWorkload(t, w, 1)
			sameProfile(t, productProfile(t, prog), referenceProfile(t, prog))
		})
	}
}

// TestInterpreterDifferentialAllWorkloads pins the uninstrumented engines
// against each other: handler-table dispatch must execute every workload to
// the same output, step count, and allocation count as the reference
// switch.
func TestInterpreterDifferentialAllWorkloads(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			src, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			m1 := interp.New(src)
			if err := m1.Run(); err != nil {
				t.Fatal(err)
			}
			m2 := interp.New(src)
			if err := m2.RunReference(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(m1.Output) != fmt.Sprint(m2.Output) {
				t.Errorf("output differs: %v vs %v", m1.Output, m2.Output)
			}
			if m1.Steps != m2.Steps || m1.Allocs != m2.Allocs || m1.NativeWork != m2.NativeWork {
				t.Errorf("counters differ: steps %d/%d allocs %d/%d native %d/%d",
					m1.Steps, m2.Steps, m1.Allocs, m2.Allocs, m1.NativeWork, m2.NativeWork)
			}
		})
	}
}

// TestConcurrentProfilesShareNoState runs three profiles of the same
// compiled program concurrently and requires each to match a sequential
// reference byte for byte. Under -race (make check) this proves the hot
// path keeps all mutable state — dense tables, inline caches, shadow slabs,
// the detached log — inside the profiler/machine pair rather than on the
// shared program. At scale 8 the runs pass interp.DetachSteps, so with
// GOMAXPROCS ≥ 2 they detach as consumer slots come free, next to runs
// that stay synchronous.
func TestConcurrentProfilesShareNoState(t *testing.T) {
	w := workloads.ByName("eclipse")
	for _, scale := range []int{1, 8} {
		prog := compileWorkload(t, w, scale)
		ref, _, _, _ := profileOutputs(t, productProfile(t, prog))
		if scale > 1 && runtime.GOMAXPROCS(0) >= 2 {
			m := interp.New(prog.prog)
			m.Tracer = profiler.New(prog.prog, profiler.Options{Slots: DefaultSlots, TrackCR: true})
			if err := m.Run(); err != nil || !m.Detached {
				t.Fatalf("scale %d: a profiled run does not detach (error %v)", scale, err)
			}
		}

		const n = 3
		results := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				profile, err := prog.ProfileContext(context.Background())
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = profile.Report(DefaultTop)
			}()
		}
		wg.Wait()
		for i := range n {
			if errs[i] != nil {
				t.Fatalf("scale %d: concurrent profile %d: %v", scale, i, errs[i])
			}
			if results[i] != ref {
				t.Errorf("scale %d: concurrent profile %d diverged from sequential reference", scale, i)
			}
		}
	}
}

// profileQueries renders every query a memoized profile answers, keyed by
// name. The server runs these concurrently on one cached Profile.
var profileQueries = []struct {
	name string
	run  func(*Profile) string
}{
	{"Report", func(pr *Profile) string { return pr.Report(DefaultTop) }},
	{"TopStructures", func(pr *Profile) string { return fmt.Sprint(pr.TopStructures(DefaultTop)) }},
	{"TopStructuresMultiHop", func(pr *Profile) string { return fmt.Sprint(pr.TopStructuresMultiHop(DefaultTop, 2)) }},
	{"Save", func(pr *Profile) string {
		var buf bytes.Buffer
		if err := pr.Save(&buf); err != nil {
			return "error: " + err.Error()
		}
		return buf.String()
	}},
	{"CacheReports", func(pr *Profile) string { return fmt.Sprint(pr.CacheReports(1)) }},
	{"Collections", func(pr *Profile) string { return fmt.Sprint(pr.Collections(DefaultTop)) }},
	{"Deadness", func(pr *Profile) string { return fmt.Sprint(pr.Deadness()) }},
}

// TestConcurrentQueriesOnOneProfile starts every query at once on a cold
// profile (no query has run yet, so the lazily built analysis state is
// built under contention) and requires each answer to match the same
// query run alone on a separate profile. Under -race this proves a
// memoized Profile needs no lock around its queries.
func TestConcurrentQueriesOnOneProfile(t *testing.T) {
	prog := compileWorkload(t, workloads.ByName("eclipse"), 1)
	want := make(map[string]string)
	for _, q := range profileQueries {
		want[q.name] = q.run(productProfile(t, prog))
	}

	cold := productProfile(t, prog)
	const rounds = 3
	got := make([]string, rounds*len(profileQueries))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, q := range profileQueries {
			wg.Add(1)
			go func(slot int, run func(*Profile) string) {
				defer wg.Done()
				got[slot] = run(cold)
			}(r*len(profileQueries)+i, q.run)
		}
	}
	wg.Wait()
	for slot, g := range got {
		q := profileQueries[slot%len(profileQueries)]
		if g != want[q.name] {
			t.Errorf("%s under concurrency differs from a lone run", q.name)
		}
	}
}

// icFuzzSource builds a program whose single hot call site rebinds its
// receiver class on every iteration according to seq: the inline cache at
// the x.tag() site is filled, invalidated, and refilled in whatever order
// the fuzzer chooses. The driver also rebinds through an array so the
// array-element load path feeds the same cache.
func icFuzzSource(seq []byte) string {
	var picks strings.Builder
	for i, b := range seq {
		var cls string
		switch b % 3 {
		case 0:
			cls = "A"
		case 1:
			cls = "B"
		default:
			cls = "C"
		}
		fmt.Fprintf(&picks, "    xs[%d] = new %s();\n", i, cls)
	}
	return fmt.Sprintf(`
class A { int tag() { return 1; } }
class B extends A { int tag() { return 22; } }
class C extends B { int tag() { return 333; } }
class Main {
  static void main() {
    A[] xs = new A[%d];
%s    int total = 0;
    for (int r = 0; r < 3; r = r + 1) {
      for (int i = 0; i < xs.length; i = i + 1) {
        total = total + xs[i].tag();
      }
    }
    print(total);
  }
}`, len(seq), picks.String())
}

// FuzzInlineCacheInvalidation drives the inline-cache invalidation protocol
// with arbitrary receiver-class rebinding sequences. The oracle is the
// reference switch interpreter: for every sequence, both engines must print
// the same output and take the same number of steps, profiled or not.
func FuzzInlineCacheInvalidation(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{2, 2, 2, 1, 0, 1, 2, 0})
	f.Add(bytes.Repeat([]byte{0, 1}, 16))
	f.Add(bytes.Repeat([]byte{2, 1, 0}, 10))
	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) == 0 || len(seq) > 64 {
			t.Skip()
		}
		prog, err := Compile(icFuzzSource(seq))
		if err != nil {
			t.Fatalf("generated program failed to compile: %v", err)
		}
		run := func(reference bool) (string, int64) {
			m := interp.New(prog.prog)
			run := m.Run
			if reference {
				run = m.RunReference
			}
			if err := run(); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(m.Output), m.Steps
		}
		out, steps := run(false)
		rout, rsteps := run(true)
		if out != rout || steps != rsteps {
			t.Fatalf("engines diverge on seq %v: %q/%d vs %q/%d", seq, out, steps, rout, rsteps)
		}
		sameProfile(t, productProfile(t, prog), referenceProfile(t, prog))
	})
}
