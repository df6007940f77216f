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
