package ir

import (
	"slices"
	"testing"
)

func TestReachingDefsDiamond(t *testing.T) {
	m := buildDiamondMethod(t)
	rd := NewReachingDefs(m, nil)
	// pc5 (v2 = v1) sits in the join: both arm definitions of v1 reach it.
	ops := rd.Operands[5]
	if len(ops) != 1 || ops[0].Slot != 1 || ops[0].Base || !slices.Equal(ops[0].Defs, []int{2, 4}) {
		t.Errorf("operands of pc5 = %+v, want one value read of v1 reached by [2 4]", ops)
	}
	// Each arm definition is read exactly once (at pc5), and v2's definition
	// is read nowhere.
	uses := make(map[int][]int)
	for pc, ops := range rd.Operands {
		for _, op := range ops {
			for _, d := range op.Defs {
				uses[d] = append(uses[d], pc)
			}
		}
	}
	for _, d := range []int{2, 4} {
		if !slices.Equal(uses[d], []int{5}) {
			t.Errorf("uses of def %d = %v, want [5]", d, uses[d])
		}
	}
	if len(uses[5]) != 0 {
		t.Errorf("v2's def must have no uses, got %v", uses[5])
	}
}

func TestDefUseParamsAndBaseFlag(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	fv := b.Field(cls, "v", IntType)
	m := b.Method(cls, "get", true, 1, IntType)
	mb := b.Body(m)
	mb.LoadField(1, 0, fv) // pc0: v1 = v0.v  (v0 is a base-pointer read)
	mb.Return(1)           // pc1
	mn := b.Method(cls, "main", true, 0, nil)
	b.Body(mn).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}

	rd := NewReachingDefs(m, nil)
	pd := rd.ParamDef(0)
	if !rd.IsParamDef(pd) || rd.IsParamDef(0) || rd.ParamOf(pd) != 0 {
		t.Fatal("IsParamDef/ParamOf misclassify")
	}
	want := []Operand{{Slot: 0, Base: true, Defs: []int{pd}}}
	if got := rd.Operands[0]; !slices.EqualFunc(got, want, operandEqual) {
		t.Errorf("pc0 operands = %+v, want one base read of the parameter", got)
	}
	want = []Operand{{Slot: 1, Defs: []int{0}}}
	if got := rd.Operands[1]; !slices.EqualFunc(got, want, operandEqual) {
		t.Errorf("pc1 operands = %+v, want one value read of the load", got)
	}
}

func operandEqual(a, b Operand) bool {
	return a.Slot == b.Slot && a.Base == b.Base && slices.Equal(a.Defs, b.Defs)
}

func TestSolveLeavesUnreachableAtBottom(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 7) // pc0
	g := mb.Goto(0)
	mb.Move(1, 0) // pc2: unreachable read of v0
	l := mb.PC()
	mb.ReturnVoid()
	mb.Patch(g, l)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	cfg := NewCFG(m)
	dead := cfg.BlockOf[2]
	if cfg.Reachable(dead) {
		t.Fatal("pc2's block should be unreachable")
	}
	// A block left at the bottom element reaches no definition: had the
	// unreachable block been solved, pc0 would reach its read.
	rd := NewReachingDefs(m, cfg)
	if ops := rd.Operands[2]; len(ops) != 0 {
		t.Errorf("unreachable pc2 operands = %+v, want none", ops)
	}
	if idom := Dominators(cfg); idom[dead] != -1 {
		t.Errorf("idom of unreachable block = %d, want -1", idom[dead])
	}
}
