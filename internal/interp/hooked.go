package interp

// The hooked handler table. Each handler executes its instruction exactly
// as its plain counterpart (handlers.go) and then calls the machine's
// tracer with the resolved operands. The machine runs this table only
// while a tracer observes the step (Machine.schedule), so the handlers
// call m.tracer unconditionally.

import "lowutil/internal/ir"

func pConstInt(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = IntVal(d.imm)
	m.tracer.Const(d.in, fr)
	fr.PC++
	return nil
}

func pConstNull(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = Null
	m.tracer.Const(d.in, fr)
	fr.PC++
	return nil
}

// hookUnary stores a one-operand result and reports it.
func hookUnary(m *Machine, fr *Frame, d *dinstr, v Value) error {
	fr.Locals[d.dst] = v
	m.tracer.Unary(d.in, fr)
	fr.PC++
	return nil
}

func pMove(m *Machine, fr *Frame, d *dinstr) error {
	return hookUnary(m, fr, d, fr.Locals[d.a])
}

func pNeg(m *Machine, fr *Frame, d *dinstr) error {
	a := fr.Locals[d.a]
	if a.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "negation of reference")
	}
	return hookUnary(m, fr, d, IntVal(-a.I))
}

func pNot(m *Machine, fr *Frame, d *dinstr) error {
	var r int64
	if !fr.Locals[d.a].Truthy() {
		r = 1
	}
	return hookUnary(m, fr, d, IntVal(r))
}

func pInstanceOf(m *Machine, fr *Frame, d *dinstr) error {
	v := fr.Locals[d.a]
	if v.K != ir.KindRef {
		return m.fail(ErrType, d.in, fr, "instanceof on non-reference")
	}
	return hookUnary(m, fr, d, IntVal(isInstance(v, d.in.Class)))
}

// hookBin stores an arithmetic result and reports it.
func hookBin(m *Machine, fr *Frame, d *dinstr, r int64) error {
	fr.Locals[d.dst] = IntVal(r)
	m.tracer.Binary(d.in, fr)
	fr.PC++
	return nil
}

func pAdd(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a+b)
}

func pSub(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a-b)
}

func pMul(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a*b)
}

func pDiv(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	if b == 0 {
		return m.fail(ErrDivZero, d.in, fr, "")
	}
	return hookBin(m, fr, d, a/b)
}

func pRem(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	if b == 0 {
		return m.fail(ErrDivZero, d.in, fr, "")
	}
	return hookBin(m, fr, d, a%b)
}

func pAnd(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a&b)
}

func pOr(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a|b)
}

func pXor(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a^b)
}

func pShl(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a<<(uint64(b)&63))
}

func pShr(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return hookBin(m, fr, d, a>>(uint64(b)&63))
}

func pNew(m *Machine, fr *Frame, d *dinstr) error {
	o, err := m.newObject(d.in, fr)
	if err != nil {
		return err
	}
	fr.Locals[d.dst] = RefVal(o)
	m.tracer.New(d.in, fr, o)
	fr.PC++
	return nil
}

func pNewArray(m *Machine, fr *Frame, d *dinstr) error {
	o, err := m.newArray(d.in, fr)
	if err != nil {
		return err
	}
	fr.Locals[d.dst] = RefVal(o)
	m.tracer.NewArray(d.in, fr, o)
	fr.PC++
	return nil
}

func pLoadField(m *Machine, fr *Frame, d *dinstr) error {
	base, err := refLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	if base.IsArray() || int(d.slot) >= len(base.Fields) {
		return m.noField(fr, d, base)
	}
	fr.Locals[d.dst] = base.Fields[d.slot]
	m.tracer.LoadField(d.in, fr, base)
	fr.PC++
	return nil
}

func pStoreField(m *Machine, fr *Frame, d *dinstr) error {
	base, err := refLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	if base.IsArray() || int(d.slot) >= len(base.Fields) {
		return m.noField(fr, d, base)
	}
	v := fr.Locals[d.b]
	base.Fields[d.slot] = v
	m.tracer.StoreField(d.in, fr, base, v)
	fr.PC++
	return nil
}

func pLoadStatic(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = m.Statics[d.slot]
	m.tracer.LoadStatic(d.in, fr)
	fr.PC++
	return nil
}

func pStoreStatic(m *Machine, fr *Frame, d *dinstr) error {
	v := fr.Locals[d.a]
	m.Statics[d.slot] = v
	m.tracer.StoreStatic(d.in, fr, v)
	fr.PC++
	return nil
}

func pALoad(m *Machine, fr *Frame, d *dinstr) error {
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	idx := fr.Locals[d.b]
	if idx.K == ir.KindRef || idx.I < 0 || idx.I >= int64(len(arr.Elems)) {
		return m.badIndex(fr, d, arr)
	}
	fr.Locals[d.dst] = arr.Elems[idx.I]
	m.tracer.LoadElem(d.in, fr, arr, idx.I)
	fr.PC++
	return nil
}

func pAStore(m *Machine, fr *Frame, d *dinstr) error {
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	idx := fr.Locals[d.b]
	if idx.K == ir.KindRef || idx.I < 0 || idx.I >= int64(len(arr.Elems)) {
		return m.badIndex(fr, d, arr)
	}
	v := fr.Locals[d.c2]
	arr.Elems[idx.I] = v
	m.tracer.StoreElem(d.in, fr, arr, idx.I, v)
	fr.PC++
	return nil
}

func pArrayLen(m *Machine, fr *Frame, d *dinstr) error {
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	fr.Locals[d.dst] = IntVal(int64(len(arr.Elems)))
	m.tracer.ArrayLen(d.in, fr, arr)
	fr.PC++
	return nil
}

// hookIf is finishIf for the hooked table. It reports the branch after a
// taken branch retargets PC but before a fall-through advances it, as the
// reference engine does.
func hookIf(m *Machine, fr *Frame, d *dinstr, taken bool) error {
	if taken {
		fr.PC = int(d.target)
	}
	m.tracer.Branch(d.in, fr, taken)
	if !taken {
		fr.PC++
	}
	return nil
}

func pIfEq(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		taken, err := m.compare(d.in, fr)
		if err != nil {
			return err
		}
		return hookIf(m, fr, d, taken)
	}
	return hookIf(m, fr, d, a.I == b.I)
}

func pIfNe(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		taken, err := m.compare(d.in, fr)
		if err != nil {
			return err
		}
		return hookIf(m, fr, d, taken)
	}
	return hookIf(m, fr, d, a.I != b.I)
}

func pIfLt(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return hookIf(m, fr, d, a.I < b.I)
}

func pIfLe(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return hookIf(m, fr, d, a.I <= b.I)
}

func pIfGt(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return hookIf(m, fr, d, a.I > b.I)
}

func pIfGe(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return hookIf(m, fr, d, a.I >= b.I)
}

func pNative(m *Machine, fr *Frame, d *dinstr) error {
	v, err := m.doNative(fr, d.in)
	if err != nil {
		return err
	}
	if d.dst >= 0 {
		fr.Locals[d.dst] = v
	}
	m.tracer.Native(d.in, fr)
	fr.PC++
	return nil
}
