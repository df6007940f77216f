package ssa

import (
	"fmt"
	"math/rand"
	"testing"

	"lowutil/internal/ir"
)

// buildLoop emits `for (i = init; i cmpKeep bound; i += step) body` the way
// mjc lowers while loops: the header tests the negated condition with the
// taken edge exiting.
func analyzeLoopMethod(t *testing.T, init, bound, step int64, exitCmp ir.Cmp) *MethodInfo {
	t.Helper()
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, init)
		bb.Const(1, bound)
		bb.Const(2, step)
		head := bb.PC()
		exit := bb.If(0, exitCmp, 1, 0)
		bb.Native(-1, ir.NativePrint, 0)
		bb.Bin(0, ir.Add, 0, 2)
		bb.Goto(head)
		bb.Patch(exit, bb.PC())
		bb.ReturnVoid()
	})
	return AnalyzeMethod(m)
}

func TestTripCountExact(t *testing.T) {
	cases := []struct {
		init, bound, step int64
		exitCmp           ir.Cmp
		want              int64
	}{
		{0, 10, 1, ir.Ge, 10},  // while i < 10
		{0, 10, 3, ir.Ge, 4},   // 0,3,6,9
		{0, 10, 1, ir.Gt, 11},  // while i <= 10
		{5, 5, 1, ir.Ge, 0},    // never runs
		{10, 0, -2, ir.Le, 5},  // while i > 0, i -= 2
		{0, 7, 1, ir.Eq, 7},    // while i != 7
		{42, 42, 1, ir.Eq, 0},  // exits immediately
		{0, -1, 1, ir.Ge, 0},   // bound below init
		{-4, 4, 2, ir.Ge, 4},   // negative start
		{0, 10, -1, ir.Ge, -1}, // diverges downward: not a counted loop
	}
	for _, tc := range cases {
		mi := analyzeLoopMethod(t, tc.init, tc.bound, tc.step, tc.exitCmp)
		if len(mi.Forest.Loops) != 1 {
			t.Fatalf("case %+v: %d loops, want 1", tc, len(mi.Forest.Loops))
		}
		if got := mi.Forest.Loops[0].Trip; got != tc.want {
			t.Errorf("init=%d bound=%d step=%d exit=%v: trip=%d, want %d",
				tc.init, tc.bound, tc.step, tc.exitCmp, got, tc.want)
		}
	}
}

func TestTripCountUnknownBound(t *testing.T) {
	// The bound is a parameter: no constant trip count.
	_, m := buildMain(t, 1, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(1, 0)
		bb.Const(2, 1)
		head := bb.PC()
		exit := bb.If(1, ir.Ge, 0, 0)
		bb.Bin(1, ir.Add, 1, 2)
		bb.Goto(head)
		bb.Patch(exit, bb.PC())
		bb.Native(-1, ir.NativePrint, 1)
		bb.ReturnVoid()
	})
	mi := AnalyzeMethod(m)
	if len(mi.Forest.Loops) != 1 {
		t.Fatalf("%d loops, want 1", len(mi.Forest.Loops))
	}
	if got := mi.Forest.Loops[0].Trip; got != -1 {
		t.Fatalf("trip=%d, want -1 (unknown)", got)
	}
}

// TestNestedLoops checks the forest structure and the multiplied weights of
// a depth-2 nest with known trip counts.
func TestNestedLoops(t *testing.T) {
	var innerBody int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, 0) // i
		bb.Const(1, 4) // n
		bb.Const(2, 1) // one
		oHead := bb.PC()
		oExit := bb.If(0, ir.Ge, 1, 0)
		bb.Const(3, 0) // j
		bb.Const(4, 6) // m
		iHead := bb.PC()
		iExit := bb.If(3, ir.Ge, 4, 0)
		innerBody = bb.Native(-1, ir.NativePrint, 3)
		bb.Bin(3, ir.Add, 3, 2)
		bb.Goto(iHead)
		bb.Patch(iExit, bb.PC())
		bb.Bin(0, ir.Add, 0, 2)
		bb.Goto(oHead)
		bb.Patch(oExit, bb.PC())
		bb.ReturnVoid()
	})
	mi := AnalyzeMethod(m)
	ft := mi.Forest
	if len(ft.Loops) != 2 {
		t.Fatalf("%d loops, want 2", len(ft.Loops))
	}
	var inner, outer *Loop
	for i := range ft.Loops {
		if ft.Loops[i].Depth == 2 {
			inner = &ft.Loops[i]
		} else {
			outer = &ft.Loops[i]
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("want depths 1 and 2, got %d and %d", ft.Loops[0].Depth, ft.Loops[1].Depth)
	}
	if inner.Parent != indexOf(ft, outer) {
		t.Fatal("inner loop's parent is not the outer loop")
	}
	if outer.Trip != 4 || inner.Trip != 6 {
		t.Fatalf("trips outer=%d inner=%d, want 4 and 6", outer.Trip, inner.Trip)
	}
	b := mi.F.CFG.BlockOf[innerBody]
	if w := mi.BlockWeight(b); w != 24 {
		t.Fatalf("inner body weight %g, want 4*6=24", w)
	}
}

func indexOf(ft *Forest, lp *Loop) int {
	for i := range ft.Loops {
		if &ft.Loops[i] == lp {
			return i
		}
	}
	return -1
}

// TestWeightsDeadBlock: SCCP-dead blocks weigh zero, live straight-line code
// weighs one.
func TestWeightsDeadBlock(t *testing.T) {
	var deadPC, livePC int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, 0)
		bb.Const(1, 7)
		j := bb.If(0, ir.Ne, 0, 0)
		g := bb.Goto(0)
		bb.Patch(j, bb.PC())
		deadPC = bb.Const(1, 99)
		bb.Patch(g, bb.PC())
		livePC = bb.Native(-1, ir.NativePrint, 1)
		bb.ReturnVoid()
	})
	mi := AnalyzeMethod(m)
	if w := mi.BlockWeight(mi.F.CFG.BlockOf[deadPC]); w != 0 {
		t.Fatalf("dead instruction weighs %g, want 0", w)
	}
	if w := mi.BlockWeight(mi.F.CFG.BlockOf[livePC]); w != 1 {
		t.Fatalf("live instruction weighs %g, want 1", w)
	}
}

// TestWeightsLoopDefault: a loop with an unknown bound weighs DefaultTrip.
func TestWeightsLoopDefault(t *testing.T) {
	_, m := buildMain(t, 1, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(1, 0)
		bb.Const(2, 1)
		head := bb.PC()
		exit := bb.If(1, ir.Ge, 0, 0)
		bb.Bin(1, ir.Add, 1, 2)
		bb.Goto(head)
		bb.Patch(exit, bb.PC())
		bb.Native(-1, ir.NativePrint, 1)
		bb.ReturnVoid()
	})
	mi := AnalyzeMethod(m)
	body := mi.F.CFG.BlockOf[4] // the increment
	if w := mi.BlockWeight(body); w != DefaultTrip {
		t.Fatalf("unknown-bound loop body weighs %g, want %d", w, DefaultTrip)
	}
}

// checkNesting recomputes the forest's nesting from the loop bodies alone:
// a loop's parent is the smallest strictly larger loop holding its header,
// its depth counts the loops up that chain, and a block's LoopOf is the
// deepest loop holding it.
func checkNesting(t *testing.T, name string, ft *Forest) {
	t.Helper()
	holds := func(lp *Loop, b int) bool {
		for _, x := range lp.Blocks {
			if x == b {
				return true
			}
		}
		return false
	}
	for i := range ft.Loops {
		lp := &ft.Loops[i]
		parent := -1
		for j := range ft.Loops {
			if j != i && len(ft.Loops[j].Blocks) > len(lp.Blocks) && holds(&ft.Loops[j], lp.Header) &&
				(parent < 0 || len(ft.Loops[j].Blocks) < len(ft.Loops[parent].Blocks)) {
				parent = j
			}
		}
		depth := 1
		for p := parent; p >= 0; p = ft.Loops[p].Parent {
			depth++
		}
		if lp.Parent != parent || lp.Depth != depth {
			t.Fatalf("%s: loop %d (header %d) has parent %d depth %d, containment says %d and %d",
				name, i, lp.Header, lp.Parent, lp.Depth, parent, depth)
		}
	}
	for b := range ft.LoopOf {
		want := -1
		for i := range ft.Loops {
			if holds(&ft.Loops[i], b) && (want < 0 || ft.Loops[i].Depth > ft.Loops[want].Depth) {
				want = i
			}
		}
		if ft.LoopOf[b] != want {
			t.Fatalf("%s: LoopOf[%d] = %d, containment says %d", name, b, ft.LoopOf[b], want)
		}
	}
}

// TestForestNestingMatchesContainment checks BuildForest's one pass over
// the headers in reverse postorder against the nesting read off the loop
// bodies, on every method of the workloads and on random programs with
// loops nested three deep.
func TestForestNestingMatchesContainment(t *testing.T) {
	loops := 0
	forEachWorkload(t, func(t *testing.T, prog *ir.Program) {
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				ft := AnalyzeMethod(m).Forest
				loops += len(ft.Loops)
				checkNesting(t, m.QualifiedName(), ft)
			}
		}
	})
	for seed := int64(0); seed < 300; seed++ {
		prog := genProgram(rand.New(rand.NewSource(seed)))
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				ft := AnalyzeMethod(m).Forest
				loops += len(ft.Loops)
				checkNesting(t, fmt.Sprintf("seed %d %s", seed, m.QualifiedName()), ft)
			}
		}
	}
	if loops == 0 {
		t.Fatal("no loops checked")
	}
}
