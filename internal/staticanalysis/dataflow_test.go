package staticanalysis

import (
	"testing"

	"lowutil/internal/ir"
)

func TestBitSetOps(t *testing.T) {
	b := NewBitSet(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("Set/Has broken")
	}
	b.Clear(64)
	if b.Has(64) {
		t.Fatal("Clear broken")
	}
	o := NewBitSet(130)
	o.Set(5)
	b.UnionWith(o)
	if !b.Has(5) || !b.Has(0) {
		t.Fatal("UnionWith broken")
	}
	b.IntersectWith(o)
	if b.Has(0) || !b.Has(5) {
		t.Fatal("IntersectWith broken")
	}
	b.AndNot(o)
	if b.Has(5) {
		t.Fatal("AndNot broken")
	}
	f := NewBitSet(70)
	f.Fill(70)
	for i := 0; i < 70; i++ {
		if !f.Has(i) {
			t.Fatalf("Fill missed bit %d", i)
		}
	}
	var got []int
	f2 := NewBitSet(130)
	f2.Set(3)
	f2.Set(127)
	f2.Range(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 3 || got[1] != 127 {
		t.Fatalf("Range = %v, want [3 127]", got)
	}
}

// buildDiamond constructs
//
//	B0: v0 = 1; if v0 == v0 goto B2
//	B1: v1 = 10; goto B3
//	B2: v1 = 20
//	B3: v2 = v1; return
//
// and returns the sealed program plus the method.
func buildDiamond(t *testing.T) *ir.Method {
	t.Helper()
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)                // pc0
	ifpc := mb.If(0, ir.Eq, 0, 0) // pc1, patched to else
	mb.Const(1, 10)               // pc2
	g := mb.Goto(0)               // pc3, patched to join
	elsePC := mb.PC()
	mb.Const(1, 20) // pc4
	join := mb.PC()
	mb.Move(2, 1)   // pc5
	mb.ReturnVoid() // pc6
	mb.Patch(ifpc, elsePC)
	mb.Patch(g, join)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDominatorsDiamond(t *testing.T) {
	m := buildDiamond(t)
	cfg := ir.NewCFG(m)
	if cfg.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", cfg.NumBlocks())
	}
	idom := Dominators(cfg)
	// Entry dominates everything; neither arm dominates the join.
	for b := 1; b < 4; b++ {
		if idom[b] != 0 {
			t.Errorf("idom[%d] = %d, want 0", b, idom[b])
		}
	}
	if !Dominates(idom, 0, 3) {
		t.Error("entry must dominate the join")
	}
	if Dominates(idom, 1, 3) || Dominates(idom, 2, 3) {
		t.Error("no single arm may dominate the join")
	}
	if !Dominates(idom, 3, 3) {
		t.Error("dominance must be reflexive")
	}
}

func TestReachingDefsDiamond(t *testing.T) {
	m := buildDiamond(t)
	rd := NewReachingDefs(m, nil)
	join := rd.CFG.BlockOf[5]
	in := rd.ReachIn(join)
	if !in.Has(2) || !in.Has(4) {
		t.Error("both arm definitions of v1 must reach the join")
	}
	du := rd.DefUse()
	wantUse := func(d int) {
		t.Helper()
		if len(du[d]) != 1 || du[d][0].PC != 5 || du[d][0].Base {
			t.Errorf("uses of def %d = %v, want [{5 false}]", d, du[d])
		}
	}
	wantUse(2)
	wantUse(4)
	if len(du[5]) != 0 {
		t.Errorf("v2's def must have no uses, got %v", du[5])
	}
}

func TestDefUseParamsAndBaseFlag(t *testing.T) {
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	fv := b.Field(cls, "v", ir.IntType)
	m := b.Method(cls, "get", true, 1, ir.IntType)
	mb := b.Body(m)
	mb.LoadField(1, 0, fv) // pc0: v1 = v0.v  (v0 is a base-pointer read)
	mb.Return(1)           // pc1
	mn := b.Method(cls, "main", true, 0, nil)
	b.Body(mn).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}

	rd := NewReachingDefs(m, nil)
	du := rd.DefUse()
	pd := rd.ParamDef(0)
	if !rd.IsParamDef(pd) || rd.IsParamDef(0) {
		t.Fatal("IsParamDef misclassifies")
	}
	if len(du[pd]) != 1 || du[pd][0].PC != 0 || !du[pd][0].Base {
		t.Errorf("param use = %v, want one base use at pc0", du[pd])
	}
	if len(du[0]) != 1 || du[0][0].PC != 1 || du[0][0].Base {
		t.Errorf("load use = %v, want one value use at pc1", du[0])
	}
}

func TestSolveLeavesUnreachableAtBottom(t *testing.T) {
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	g := mb.Goto(0)
	mb.Const(0, 7) // unreachable block
	l := mb.PC()
	mb.ReturnVoid()
	mb.Patch(g, l)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	cfg := ir.NewCFG(m)
	dead := cfg.BlockOf[1]
	if cfg.Reachable(dead) {
		t.Fatal("pc1's block should be unreachable")
	}
	rd := NewReachingDefs(m, cfg)
	if in := rd.ReachIn(dead); in.Has(1) {
		t.Error("unreachable block must stay at the bottom element")
	}
	idom := Dominators(cfg)
	if idom[dead] != -1 {
		t.Errorf("idom of unreachable block = %d, want -1", idom[dead])
	}
}
