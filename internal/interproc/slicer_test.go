package interproc

import (
	"testing"

	"lowutil/internal/ir"
	"lowutil/internal/workloads"
)

// sliceProgram builds a program exercising every static edge class across a
// call boundary:
//
//	Main.main:
//	  pc0  h   = new Holder
//	  pc1  c   = 7
//	  pc2  v   = id(c)          // static call
//	  pc3  h.x = v              // field store
//	  pc4  l   = h.x            // field load
//	  pc5  if l == l …          // consumer
//	  pc6  k   = new Holder
//	  pc7  h.ref = k            // reference-valued store (child edge)
//	  pc8  return
//	Helper.id(a): return a
func sliceProgram(t *testing.T) (*ir.Program, *ir.Method, *ir.Method) {
	t.Helper()
	b := ir.NewBuilder()
	holder := b.Class("Holder", nil)
	fx := b.Field(holder, "x", ir.IntType)
	fref := b.Field(holder, "ref", b.RefType(holder))
	helper := b.Class("Helper", nil)
	id := b.Method(helper, "id", true, 1, ir.IntType)
	body := b.Body(id)
	body.Return(0)
	main := b.Class("Main", nil)
	mm := b.Method(main, "main", true, 0, nil)
	body = b.Body(mm)
	body.New(0, holder)         // pc0
	body.Const(1, 7)            // pc1
	body.Call(2, id, 1)         // pc2
	body.StoreField(0, fx, 2)   // pc3
	body.LoadField(3, 0, fx)    // pc4
	body.If(3, ir.Eq, 3, 8)     // pc5
	body.New(4, holder)         // pc6
	body.StoreField(0, fref, 4) // pc7
	body.ReturnVoid()           // pc8
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	return prog, mm, id
}

func TestStaticSliceEdges(t *testing.T) {
	prog, mm, id := sliceProgram(t)
	an := Analyze(prog, Config{Mode: RTA})
	sg := an.Slice
	iid := func(m *ir.Method, pc int) int { return int(m.Code[pc].ID) }

	fref := prog.ClassByName("Holder").LookupField("ref")

	checks := []struct {
		name string
		got  bool
		want bool
	}{
		// Formal a of id carries main's const node (EnterMethod copy).
		{"id.return -> main.const", sg.HasDep(iid(id, 0), iid(mm, 1)), true},
		// AfterCall node depends on the return producer, transitively the const.
		{"call -> const (ret producer)", sg.HasDep(iid(mm, 2), iid(mm, 1)), true},
		// Field store consumes the stored value.
		{"store -> call", sg.HasDep(iid(mm, 3), iid(mm, 2)), true},
		// Heap load depends on the aliased store.
		{"load -> store", sg.HasDep(iid(mm, 4), iid(mm, 3)), true},
		// Predicate consumes the loaded value.
		{"if -> load", sg.HasDep(iid(mm, 5), iid(mm, 4)), true},
		// Thin slicing: the load must NOT depend on the base-pointer producer.
		{"load -> new (base)", sg.HasDep(iid(mm, 4), iid(mm, 0)), false},
		// Ref edges: both stores reference the base allocation site.
		{"store.x ref new", sg.HasRef(iid(mm, 3), iid(mm, 0)), true},
		{"store.ref ref new", sg.HasRef(iid(mm, 7), iid(mm, 0)), true},
		// Child edge: (h's site, ref field) holds k's site.
		{"child", sg.HasChild(iid(mm, 0), fref.ID, iid(mm, 6)), true},
		{"no child on x", sg.HasChild(iid(mm, 0), fref.ID, iid(mm, 0)), false},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	bounds := sg.Bounds()
	if len(bounds) != 2 {
		t.Fatalf("bounds for %d locations, want 2 (x and ref)", len(bounds))
	}
	// Ranking: the write-only ref location must precede the consumed x.
	if !bounds[0].WriteOnly() || bounds[0].Key.Field != fref.ID {
		t.Errorf("top candidate = %+v, want the write-only ref location", bounds[0])
	}
	if bounds[1].WriteOnly() || !bounds[1].Consumed {
		t.Errorf("second candidate = %+v, want the consumed x location", bounds[1])
	}
	if bounds[1].CostBound < 3 {
		// store, call, const at least sit in x's backward slice.
		t.Errorf("x cost bound = %d, want >= 3", bounds[1].CostBound)
	}
}

// TestSliceReportDeterministic pins byte-stability: two full pipeline runs
// over freshly compiled programs must render identical reports, under both
// modes, for every workload.
func TestSliceReportDeterministic(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:4]
	}
	for _, w := range ws {
		for _, cfg := range []Config{{Mode: CHA}, {Mode: RTA, ObjCtx: true}} {
			render := func() string {
				prog, err := w.Compile(1)
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				return Analyze(prog, cfg).Report(10)
			}
			r1, r2 := render(), render()
			if r1 != r2 {
				t.Errorf("%s (%s): report not byte-stable:\n--- run 1\n%s\n--- run 2\n%s",
					w.Name, cfg.Mode, r1, r2)
			}
		}
	}
}
