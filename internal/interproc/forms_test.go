package interproc_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"lowutil/internal/escape"
	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/ssa"
	"lowutil/internal/staticanalysis"
	"lowutil/internal/workloads"
)

// allocsUnder counts the allocations recorded in the heap profile whose
// stack passes through the function named fn but not through the one named
// except ("" for none).
func allocsUnder(fn, except string) int64 {
	runtime.GC()
	runtime.GC() // the profile reports allocations as of the last completed cycle
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var count int64
	for i := range recs {
		in, out := false, false
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			fr, more := frames.Next()
			switch fr.Function {
			case fn:
				in = true
			case except:
				out = except != ""
			}
			if !more {
				break
			}
		}
		if in && !out {
			count += recs[i].AllocObjects
		}
	}
	return count
}

// TestOneSSAFormPerReachableMethod pins the work count of the static
// surfaces on the 18 workloads at scale 1. One StaticAudit (the heap
// analysis, then the escape pass) and one Vet each build exactly one SSA
// form per call-graph-reachable method, 94 in all, and a pass never
// replaces the form the constant-propagation fixpoint built: escape and
// vet read the very *ssa.Func it re-seeded. The count is read off the
// analysis's own table of forms. A heap profile of every allocation made
// meanwhile shows that no form is built anywhere but in that table, and
// that Vet builds no reaching definitions.
func TestOneSSAFormPerReachableMethod(t *testing.T) {
	const (
		build     = "lowutil/internal/ssa.Build"
		owner     = "lowutil/internal/interproc.(*Analysis).Func"
		reachDefs = "lowutil/internal/ir.NewReachingDefs"
	)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	strayBuilds, reachBefore := allocsUnder(build, owner), allocsUnder(reachDefs, "")

	ctx := context.Background()
	var reachable, audit, vet int
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		methods := func() []*ir.Method {
			var ms []*ir.Method
			for _, c := range prog.Classes {
				ms = append(ms, c.Methods...)
			}
			return ms
		}()
		// forms checks that an holds a form for exactly the reachable
		// methods, that none replaced the one IPCP built, and counts them.
		forms := func(an *interproc.Analysis, ipcp map[*ir.Method]*ssa.Func) int {
			n := 0
			for _, m := range methods {
				f := an.Built(m)
				if (f != nil) != an.CG.Reachable(m) {
					t.Errorf("%s: %s has form %v, reachable %v", w.Name, m.QualifiedName(), f != nil, an.CG.Reachable(m))
				}
				if g := ipcp[m]; g != nil && g != f {
					t.Errorf("%s: the form of %s was rebuilt after IPCP", w.Name, m.QualifiedName())
				}
				if f != nil {
					n++
				}
			}
			return n
		}
		heap := func() (*interproc.Analysis, map[*ir.Method]*ssa.Func) {
			an, err := interproc.AnalyzeHeapContext(ctx, prog, interproc.Config{Mode: interproc.RTA})
			if err != nil {
				t.Fatal(err)
			}
			ipcp := make(map[*ir.Method]*ssa.Func)
			for _, m := range methods {
				if f := an.Built(m); f != nil {
					ipcp[m] = f
				}
			}
			return an, ipcp
		}

		an, ipcp := heap()
		if _, err := escape.AnalyzeContext(ctx, an); err != nil {
			t.Fatal(err)
		}
		audit += forms(an, ipcp)

		an, ipcp = heap()
		staticanalysis.VetWith(prog, an)
		vet += forms(an, ipcp)

		for _, m := range methods {
			if an.CG.Reachable(m) {
				reachable++
			}
		}
	}
	if reachable != 94 || audit != reachable || vet != reachable {
		t.Errorf("SSA forms built: audit %d, vet %d; want one per reachable method, 94 (have %d)", audit, vet, reachable)
	}
	if n := allocsUnder(build, owner) - strayBuilds; n != 0 {
		t.Errorf("%d allocations under ssa.Build outside Analysis.Func: a pass built its own form", n)
	}
	if n := allocsUnder(reachDefs, "") - reachBefore; n != 0 {
		t.Errorf("Vet allocated %d times under ir.NewReachingDefs, want none", n)
	}
}

// TestVetReadsFixpointSCCP pins which reachable methods of the 18
// workloads at scale 1 still get their own unseeded SCCP run from
// Analysis.SCCP: those whose parameters the constant-propagation fixpoint
// proved constant. Every other reachable method, 79 of the 94, is handed
// the fixpoint's last run, read off the analysis's own table, and that run
// must equal a new unseeded one.
func TestVetReadsFixpointSCCP(t *testing.T) {
	want := []string{
		"antlr:TokenStream.fill", "bloat:CharBuf.init", "chart:Series.init",
		"fop:TreeGen.gen", "jython:Frame.init", "jython:CodeGen.gen",
		"xalan:DocGen.gen", "hsqldb:Table.init", "luindex:Index.init",
		"lusearch:Scorer.init", "eclipse:HashtableOfArray.init",
		"batik:Transform.scale", "derby:ContextMap.init", "sunflow:Shader.init",
		"tradebeans:AccountService.allocate",
	}
	var own []string
	reachable, kept := 0, 0
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		an, err := interproc.AnalyzeHeapContext(context.Background(), prog, interproc.Config{Mode: interproc.RTA})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				if !an.CG.Reachable(m) {
					if an.Unseeded(m) != nil {
						t.Errorf("%s: %s is off the call graph but has a fixpoint run", w.Name, m.QualifiedName())
					}
					continue
				}
				reachable++
				sc := an.Unseeded(m)
				if sc == nil {
					own = append(own, w.Name+":"+m.QualifiedName())
					continue
				}
				kept++
				if an.SCCP(m) != sc {
					t.Errorf("%s: SCCP(%s) is not the fixpoint's run", w.Name, m.QualifiedName())
				}
				fresh := ssa.RunSCCP(sc.F)
				same := slices.Equal(sc.BlockExec, fresh.BlockExec)
				for v := range sc.F.NumVals() {
					c1, k1 := sc.ConstOf(ssa.ValID(v))
					c2, k2 := fresh.ConstOf(ssa.ValID(v))
					same = same && c1 == c2 && k1 == k2
				}
				if !same {
					t.Errorf("%s: the fixpoint's SCCP run of %s differs from an unseeded one", w.Name, m.QualifiedName())
				}
			}
		}
	}
	if reachable != 94 || kept != 79 {
		t.Errorf("%d of %d reachable methods read the fixpoint's run, want 79 of 94", kept, reachable)
	}
	if !slices.Equal(own, want) {
		t.Errorf("methods that run their own SCCP:\n got %q\nwant %q", own, want)
	}
}
