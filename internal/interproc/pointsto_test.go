package interproc

import (
	"testing"

	"lowutil/internal/ir"
)

// boxProgram builds two Box objects whose "val" fields hold distinct Payload
// objects, exercising field sensitivity:
//
//	b1 = new Box; p1 = new Payload; b1.val = p1
//	b2 = new Box; p2 = new Payload; b2.val = p2
//	x  = b1.val
//
// Field sensitivity is per abstract object: b1 and b2 are distinct
// allocation sites, so pt(x) = {p1} — a field-based analysis would merge in
// p2.
func TestPointsToFieldSensitivity(t *testing.T) {
	b := ir.NewBuilder()
	box := b.Class("Box", nil)
	payload := b.Class("Payload", nil)
	val := b.Field(box, "val", b.RefType(payload))
	main := b.Class("Main", nil)
	mm := b.Method(main, "main", true, 0, nil)
	body := b.Body(mm)
	body.New(0, box)     // pc0: b1
	body.New(1, payload) // pc1: p1
	body.StoreField(0, val, 1)
	body.New(2, box)     // pc3: b2
	body.New(3, payload) // pc4: p2
	body.StoreField(2, val, 3)
	body.LoadField(4, 0, val) // x = b1.val
	body.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}

	cg := NewCallGraph(prog, RTA)
	pt := NewPointsTo(prog, cg, Config{Mode: RTA})
	got := pt.VarPT(mm, 4)
	if len(got) != 1 {
		t.Fatalf("pt(x) = %v, want exactly one object", got)
	}
	o := pt.Objects[got[0]]
	if o.Site.PC != 1 {
		t.Errorf("pt(x) holds site at pc %d, want the first Payload (pc 1)", o.Site.PC)
	}
	if len(pt.VarPT(mm, 0)) != 1 || len(pt.VarPT(mm, 2)) != 1 {
		t.Errorf("box vars should each point to one site")
	}
}

// TestPointsToDispatchFilter: the receiver flowing into a virtual target must
// be filtered per override — B's this never sees the C object.
func TestPointsToDispatchFilter(t *testing.T) {
	b := ir.NewBuilder()
	a := b.Class("A", nil)
	bb := b.Class("B", a)
	cc := b.Class("C", a)
	mk := func(c *ir.Class) *ir.Method {
		m := b.Method(c, "id", false, 1, b.RefType(a))
		body := b.Body(m)
		body.Return(0) // return this
		return m
	}
	aid := mk(a)
	mk(bb)
	mk(cc)
	main := b.Class("Main", nil)
	mm := b.Method(main, "main", true, 0, nil)
	body := b.Body(mm)
	body.New(0, bb)
	body.New(1, cc)
	body.Call(2, aid, 0) // rB = b.id()
	body.Call(3, aid, 1) // rC = c.id()
	body.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}

	cg := NewCallGraph(prog, RTA)
	pt := NewPointsTo(prog, cg, Config{Mode: RTA})
	single := func(slot, wantPC int) {
		t.Helper()
		got := pt.VarPT(mm, slot)
		if len(got) != 1 || int(pt.Objects[got[0]].Site.PC) != wantPC {
			var pcs []int
			for _, o := range got {
				pcs = append(pcs, int(pt.Objects[o].Site.PC))
			}
			t.Errorf("pt(v%d) sites at pcs %v, want exactly pc %d", slot, pcs, wantPC)
		}
	}
	single(2, 0) // b.id() returns only the B object
	single(3, 1) // c.id() returns only the C object
	bid := bb.LookupMethod("id")
	if got := pt.VarPT(bid, 0); len(got) != 1 || pt.Objects[got[0]].Site.PC != 0 {
		t.Errorf("pt(B.id this) = %v, want only the B object", got)
	}
}

// TestPointsToObjCtx: with one level of receiver context, an allocation
// inside a method called on two distinct receivers yields two abstract
// objects; without it, one.
func TestPointsToObjCtx(t *testing.T) {
	b := ir.NewBuilder()
	item := b.Class("Item", nil)
	maker := b.Class("Maker", nil)
	mk := b.Method(maker, "make", false, 1, b.RefType(item))
	body := b.Body(mk)
	body.New(1, item)
	body.Return(1)
	main := b.Class("Main", nil)
	mm := b.Method(main, "main", true, 0, nil)
	body = b.Body(mm)
	body.New(0, maker) // maker #1
	body.New(1, maker) // maker #2
	body.Call(2, mk, 0)
	body.Call(3, mk, 1)
	body.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}

	cg := NewCallGraph(prog, RTA)
	plain := NewPointsTo(prog, cg, Config{Mode: RTA})
	if got := plain.VarPT(mm, 2); len(got) != 1 {
		t.Errorf("context-insensitive pt(v2) = %v, want one object", got)
	}

	ctx := NewPointsTo(prog, cg, Config{Mode: RTA, ObjCtx: true})
	g2, g3 := ctx.VarPT(mm, 2), ctx.VarPT(mm, 3)
	if len(g2) != 2 || len(g3) != 2 {
		// The Item allocation is qualified by its receiver, but the return
		// var merges both contexts — both flow to both call results.
		t.Fatalf("obj-ctx pt sizes %d/%d, want 2/2 (merged at the return var)", len(g2), len(g3))
	}
	ctxs := map[int]bool{}
	for _, o := range g2 {
		ctxs[ctx.Objects[o].Ctx] = true
	}
	if len(ctxs) != 2 {
		t.Errorf("obj-ctx objects share a context: %v", ctxs)
	}
	if ctx.NumObjects() <= plain.NumObjects() {
		t.Errorf("obj-ctx created %d objects, plain %d; want strictly more",
			ctx.NumObjects(), plain.NumObjects())
	}
}
