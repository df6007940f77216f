package ir

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func buildLinear(t *testing.T) (*Builder, *Class) {
	t.Helper()
	b := NewBuilder()
	cls := b.Class("Main", nil)
	return b, cls
}

func TestSealAssignsInstrAndSiteIDs(t *testing.T) {
	b, cls := buildLinear(t)
	other := b.Class("Other", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.New(0, other)
	mb.New(1, other)
	mb.Const(2, 5)
	mb.NewArray(3, IntType, 2)
	mb.ReturnVoid()

	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.NumInstrs(); got != 5 {
		t.Fatalf("NumInstrs = %d, want 5", got)
	}
	if got := prog.NumAllocSites(); got != 3 {
		t.Fatalf("NumAllocSites = %d, want 3", got)
	}
	for i, in := range prog.Instrs {
		if int(in.ID) != i {
			t.Errorf("instr %d has ID %d", i, in.ID)
		}
		if in.Method != m {
			t.Errorf("instr %d not linked to method", i)
		}
	}
	for i, site := range prog.AllocSites {
		if int(site.AllocSite) != i {
			t.Errorf("alloc site %d has index %d", i, site.AllocSite)
		}
	}
}

func TestFieldSlotsWithInheritance(t *testing.T) {
	b := NewBuilder()
	base := b.Class("Base", nil)
	b.Field(base, "x", IntType)
	b.Field(base, "y", IntType)
	derived := b.Class("Derived", base)
	fz := b.Field(derived, "z", IntType)

	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	b.Body(m).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	if fz.Slot != 2 {
		t.Errorf("Derived.z slot = %d, want 2", fz.Slot)
	}
	if derived.NumFieldSlots() != 3 {
		t.Errorf("Derived slots = %d, want 3", derived.NumFieldSlots())
	}
	if got := derived.LookupField("x"); got == nil || got.Slot != 0 {
		t.Errorf("LookupField(x) = %v", got)
	}
	if !derived.IsSubclassOf(base) || base.IsSubclassOf(derived) {
		t.Error("IsSubclassOf misbehaves")
	}
}

func TestInheritanceCycleRejected(t *testing.T) {
	b := NewBuilder()
	a := b.Class("A", nil)
	c := b.Class("C", a)
	a.Super = c // create a cycle behind the builder's back
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	b.Body(m).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want inheritance-cycle error, got %v", err)
	}
}

func TestVirtualLookupPrefersOverride(t *testing.T) {
	b := NewBuilder()
	base := b.Class("Base", nil)
	mBase := b.Method(base, "foo", false, 1, IntType)
	bb := b.Body(mBase)
	bb.Const(1, 1)
	bb.Return(1)
	derived := b.Class("Derived", base)
	mDer := b.Method(derived, "foo", false, 1, IntType)
	db := b.Body(mDer)
	db.Const(1, 2)
	db.Return(1)

	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	b.Body(m).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	if derived.LookupMethod("foo") != mDer {
		t.Error("derived lookup should find override")
	}
	if base.LookupMethod("foo") != mBase {
		t.Error("base lookup should find base method")
	}
}

func TestValidateCatchesBadBranch(t *testing.T) {
	b, cls := buildLinear(t)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	mb.Goto(99)
	mb.ReturnVoid()
	if _, err := b.Seal("Main", "main"); err == nil || !strings.Contains(err.Error(), "branch target") {
		t.Fatalf("want branch-target error, got %v", err)
	}
}

func TestValidateCatchesFallOff(t *testing.T) {
	b, cls := buildLinear(t)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1) // no return
	if _, err := b.Seal("Main", "main"); err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Fatalf("want fall-off error, got %v", err)
	}
}

func TestValidateCatchesVoidMismatch(t *testing.T) {
	b, cls := buildLinear(t)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	mb.emit(Instr{Op: OpReturn, A: 0, HasA: true, Dst: -1, B: -1, C2: -1})
	if _, err := b.Seal("Main", "main"); err == nil || !strings.Contains(err.Error(), "value return from void") {
		t.Fatalf("want void-mismatch error, got %v", err)
	}
}

func TestValidateCatchesArgCount(t *testing.T) {
	b, cls := buildLinear(t)
	callee := b.Method(cls, "two", true, 2, IntType)
	cb := b.Body(callee)
	cb.Const(2, 0)
	cb.Return(2)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	mb.Call(1, callee, 0) // one arg for a two-arg method
	mb.ReturnVoid()
	if _, err := b.Seal("Main", "main"); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("want arg-count error, got %v", err)
	}
}

func TestSealRejectsMissingMain(t *testing.T) {
	b, cls := buildLinear(t)
	m := b.Method(cls, "main", true, 0, nil)
	b.Body(m).ReturnVoid()
	if _, err := b.Seal("Nope", "main"); err == nil {
		t.Fatal("want missing-class error")
	}
	if _, err := b.Seal("Main", "nope"); err == nil {
		t.Fatal("want missing-method error")
	}
}

func TestSealRejectsNonStaticMain(t *testing.T) {
	b, cls := buildLinear(t)
	m := b.Method(cls, "main", false, 1, nil)
	b.Body(m).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err == nil {
		t.Fatal("want non-static-main error")
	}
}

func TestDisassembleMentionsEverything(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	f := b.Field(cls, "x", IntType)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.New(0, cls)
	mb.Const(1, 42)
	mb.StoreField(0, f, 1)
	mb.LoadField(2, 0, f)
	mb.Native(-1, NativePrint, 2)
	mb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	dis := prog.Disassemble()
	for _, want := range []string{"class Main", "field int x", "new Main", "v0.x = v1", "v2 = v0.x", "native print", "42"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Foo", nil)
	rt := b.RefType(cls)
	at := b.ArrayType(rt)
	aat := b.ArrayType(at)
	cases := []struct {
		typ  *Type
		want string
	}{
		{IntType, "int"},
		{rt, "Foo"},
		{at, "Foo[]"},
		{aat, "Foo[][]"},
		{nil, "void"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if b.RefType(cls) != rt {
		t.Error("RefType not interned")
	}
	if b.ArrayType(rt) != at {
		t.Error("ArrayType not interned")
	}
}

// Property: for any class shape (number of fields per class along a chain),
// field slots are dense, unique, and superclass-first.
func TestFieldSlotDensityProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) == 0 || len(counts) > 6 {
			return true // trivially pass out-of-shape inputs
		}
		b := NewBuilder()
		var prev *Class
		var all []*Field
		for ci, cnt := range counts {
			c := b.Class(string(rune('A'+ci)), prev)
			for fi := 0; fi < int(cnt%5); fi++ {
				all = append(all, b.Field(c, string(rune('a'+fi)), IntType))
			}
			prev = c
		}
		cls := b.Class("Main", nil)
		m := b.Method(cls, "main", true, 0, nil)
		b.Body(m).ReturnVoid()
		if _, err := b.Seal("Main", "main"); err != nil {
			return false
		}
		seen := make(map[int]bool)
		for i, f := range all {
			if f.Slot != i { // declaration order along the chain == slot order
				return false
			}
			if seen[f.Slot] {
				return false
			}
			seen[f.Slot] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalNameFallback(t *testing.T) {
	m := &Method{LocalNames: []string{"this", "x"}}
	if m.LocalName(0) != "this" || m.LocalName(1) != "x" || m.LocalName(5) != "v5" {
		t.Errorf("LocalName fallback broken: %q %q %q", m.LocalName(0), m.LocalName(1), m.LocalName(5))
	}
}

// TestInstrSize pins the compact layout: one instruction is one 64-byte
// cache line, so a compiled program is mostly 64 bytes an instruction.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want at most 64", got)
	}
}

// TestInstrPointersIntoCode checks that every pointer in Program.Instrs and
// AllocSites points into its method's Code, after Seal and after Reindex,
// and that both tables are sized exactly.
func TestInstrPointersIntoCode(t *testing.T) {
	b, cls := buildLinear(t)
	other := b.Class("Other", nil)
	callee := b.Method(cls, "id", true, 1, IntType)
	cb := b.Body(callee)
	cb.New(1, other)
	cb.Return(0)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	for i := 0; i < 300; i++ { // spans several builder chunks
		mb.Const(0, int64(i))
		mb.Call(1, callee, 0)
		mb.NewArray(2, IntType, 1)
	}
	jump := mb.Goto(0)
	mb.Patch(jump, jump+1) // the body starts past the log's first instruction
	mb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Code[jump].Target; int(got) != jump+1 {
		t.Errorf("patched goto targets %d, want %d", got, jump+1)
	}
	check := func(when string) {
		t.Helper()
		if len(prog.Instrs) != cap(prog.Instrs) || len(prog.AllocSites) != cap(prog.AllocSites) {
			t.Errorf("%s: Instrs %d/%d, AllocSites %d/%d: not sized exactly", when,
				len(prog.Instrs), cap(prog.Instrs), len(prog.AllocSites), cap(prog.AllocSites))
		}
		for i, in := range prog.Instrs {
			if code := in.Method.Code; in != &code[in.PC] {
				t.Fatalf("%s: Instrs[%d] does not point at %s's Code[%d]", when, i, in.Method.QualifiedName(), in.PC)
			}
		}
		for i, in := range prog.AllocSites {
			if in != prog.Instrs[in.ID] || int(in.AllocSite) != i {
				t.Fatalf("%s: AllocSites[%d] is not instruction %d's site", when, i, in.ID)
			}
		}
	}
	check("Seal")
	if n := len(prog.AllocSites); n != 301 {
		t.Fatalf("%d allocation sites, want 301", n)
	}
	if got := m.Code[1].Args(); len(got) != 1 || got[0] != 0 {
		t.Errorf("call args = %v, want [0]", got)
	}
	// A pass that rewrites a body in place replaces Code; Reindex renumbers.
	m.Code = append([]Instr{m.Code[0]}, m.Code...)
	prog.Reindex()
	check("Reindex")
}

// TestBodiesBuiltOneAtATime pins the builder's contract: a body is one run
// of the builder's log, so emitting into a body after another has begun
// panics.
func TestBodiesBuiltOneAtATime(t *testing.T) {
	b, cls := buildLinear(t)
	first := b.Body(b.Method(cls, "first", true, 0, nil))
	first.Const(0, 1)
	b.Body(b.Method(cls, "main", true, 0, nil))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "after the body of Main.main began") {
			t.Fatalf("recover() = %v, want the interleaving panic", r)
		}
	}()
	first.ReturnVoid()
}
