package ir

import (
	"strings"
	"testing"
)

// TestInstrStringsCoverAllOpcodes pins the disassembly form of every opcode.
func TestInstrStringsCoverAllOpcodes(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("C", nil)
	f := b.Field(cls, "fld", IntType)
	sf := b.StaticField(cls, "sfld", IntType)
	callee := b.Method(cls, "callee", true, 1, IntType)
	cb := b.Body(callee)
	cb.Return(0)

	m := b.Method(cls, "main", true, 0, IntType)
	mb := b.Body(m)
	mb.Const(0, 7)
	mb.Null(1)
	mb.Move(2, 0)
	mb.Bin(3, Add, 0, 2)
	mb.Neg(3, 0)
	mb.Not(3, 0)
	mb.New(4, cls)
	mb.NewArray(5, IntType, 0)
	mb.LoadField(3, 4, f)
	mb.StoreField(4, f, 0)
	mb.LoadStatic(3, sf)
	mb.StoreStatic(sf, 0)
	mb.ALoad(3, 5, 0)
	mb.AStore(5, 0, 2)
	mb.ArrayLen(3, 5)
	mb.If(0, Lt, 2, 0)
	mb.Goto(0)
	mb.Call(3, callee, 0)
	mb.Native(3, NativeHash, 0)
	mb.InstanceOf(3, 4, cls)
	mb.Return(3)
	// (seal will fail termination? Return at end terminates; If/Goto jump to 0 — fine.)
	prog, err := b.Seal("C", "main")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"v0 = 7", "v1 = null", "v2 = v0", "v3 = v0 + v2", "v3 = -v0", "v3 = !v0",
		"new C", "new int[v0]", "v3 = v4.fld", "v4.fld = v0",
		"v3 = C.sfld", "C.sfld = v0", "v3 = v5[v0]", "v5[v0] = v2",
		"v3 = len(v5)", "if v0 < v2 goto 0", "goto 0",
		"call C.callee", "native hash", "v4 instanceof C", "return v3",
	}
	dis := prog.Disassemble()
	for _, w := range want {
		if !strings.Contains(dis, w) {
			t.Errorf("disassembly missing %q:\n%s", w, dis)
		}
	}
	// Op and operator String methods.
	ops := []string{OpConst.String(), OpIf.String(), Add.String(), Shr.String(), Le.String(), NativeDBQuery.String()}
	for _, o := range ops {
		if o == "" || strings.HasPrefix(o, "op(") || strings.HasPrefix(o, "bin(") {
			t.Errorf("bad op string %q", o)
		}
	}
	if _, ok := NativeByName("rand"); !ok {
		t.Error("NativeByName(rand) failed")
	}
	if _, ok := NativeByName("nope"); ok {
		t.Error("NativeByName(nope) should fail")
	}
}

func TestValidateOperandSlotRanges(t *testing.T) {
	cases := []func(*Builder, *Class, *Method){
		func(b *Builder, c *Class, m *Method) { // bad dst
			mb := b.Body(m)
			mb.emit(Instr{Op: OpConst, Dst: 99, A: -1, B: -1, C2: -1})
			mb.emit(Instr{Op: OpReturn, Dst: -1, A: -1, B: -1, C2: -1})
		},
		func(b *Builder, c *Class, m *Method) { // bad astore operand
			mb := b.Body(m)
			mb.Const(0, 1)
			mb.emit(Instr{Op: OpAStore, A: 0, B: 0, C2: 50, Dst: -1})
			mb.emit(Instr{Op: OpReturn, Dst: -1, A: -1, B: -1, C2: -1})
		},
	}
	for i, build := range cases {
		b := NewBuilder()
		cls := b.Class("Main", nil)
		m := b.Method(cls, "main", true, 0, nil)
		build(b, cls, m)
		if _, err := b.Seal("Main", "main"); err == nil {
			t.Errorf("case %d: want slot-range error", i)
		}
	}
}
