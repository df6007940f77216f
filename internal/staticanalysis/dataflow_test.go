package staticanalysis

import "testing"

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
