package ir_test

import (
	"testing"

	"lowutil/internal/fuzzgen"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/workloads"
)

// idomWalk is the reference dominance test: climb b's immediate-dominator
// chain to the entry and look for a. Blocks unreachable from the entry
// (idom -1) dominate nothing and are dominated by nothing.
func idomWalk(idom []int, a, b int) bool {
	if idom[a] == -1 || idom[b] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = idom[b]
	}
}

// TestDominatesMatchesIdomWalk checks the constant-time DomTree.Dominates,
// answered from the tree's pre- and postorder numbers, against the idom
// chain walk for every ordered pair of blocks of every method: the 18
// workloads at scale 1 and the first 50 programs of the differential
// fuzzer's generator.
func TestDominatesMatchesIdomWalk(t *testing.T) {
	var progs []*ir.Program
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for seed := uint64(1); seed <= 50; seed++ {
		prog, err := mjc.Compile(fuzzgen.Generate(seed, fuzzgen.DefaultConfig).Render())
		if err != nil {
			t.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		progs = append(progs, prog)
	}
	pairs := 0
	for _, prog := range progs {
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				d := ir.NewDomTree(ir.NewCFG(m))
				nb := d.CFG.NumBlocks()
				for a := 0; a < nb; a++ {
					for b := 0; b < nb; b++ {
						pairs++
						if got, want := d.Dominates(a, b), idomWalk(d.Idom, a, b); got != want {
							t.Fatalf("%s: Dominates(%d, %d) = %v, idom walk says %v", m.QualifiedName(), a, b, got, want)
						}
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no block pairs checked")
	}
}
