package interproc_test

import (
	"context"
	"runtime"
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
