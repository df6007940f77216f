package interp

// The reference engine: the original switch-dispatch interpreter loop. The
// product runs the handler-table engine (handlers.go); this loop stays only
// as the oracle the differential tests and the fuzz harness compare it
// against. It shares natives, comparisons and allocation with the handler
// engine and is entered only through RunReference.

import "lowutil/internal/ir"

// RunReference executes the program's main method on the reference
// switch-dispatch engine. Output, counters and every tracer hook call match
// Run exactly; only the dispatch mechanism differs.
func (m *Machine) RunReference() error {
	m.start()
	return m.loopReference()
}

// loopReference is the switch-dispatch counterpart of loopUntil; it runs
// until the call stack empties.
func (m *Machine) loopReference() error {
	var done <-chan struct{}
	if m.Ctx != nil {
		done = m.Ctx.Done()
	}
	for len(m.frames) > 0 {
		fr := m.frames[len(m.frames)-1]
		if fr.PC < 0 || fr.PC >= len(fr.Method.Code) {
			return m.fail(ErrType, nil, fr, "pc %d out of range in %s", fr.PC, fr.Method.QualifiedName())
		}
		in := &fr.Method.Code[fr.PC]
		m.Steps++
		if m.Steps > m.MaxSteps {
			return m.fail(ErrStepLimit, in, fr, "after %d steps", m.Steps-1)
		}
		if done != nil && m.Steps&cancelCheckMask == 0 {
			select {
			case <-done:
				err := m.fail(ErrCanceled, in, fr, "after %d steps", m.Steps)
				err.(*VMError).Cause = m.Ctx.Err()
				return err
			default:
			}
		}
		if err := m.step(fr, in); err != nil {
			return err
		}
	}
	return nil
}

// observer returns the tracer whose hooks see the step being run: the
// machine's Tracer, or a NopTracer when it has none or its Window leaves
// the step out.
func (m *Machine) observer() Tracer {
	if m.Tracer == nil || !m.Window.contains(m.Steps-1) {
		return NopTracer{}
	}
	return m.Tracer
}

// step executes one instruction and reports it to the observing tracer's
// hook for its opcode. It advances fr.PC itself.
func (m *Machine) step(fr *Frame, in *ir.Instr) error {
	loc := fr.Locals
	t := m.observer()

	switch in.Op {
	case ir.OpConst:
		if in.IsNull {
			loc[in.Dst] = Null
		} else {
			loc[in.Dst] = IntVal(in.Imm)
		}
		t.Const(in, fr)

	case ir.OpMove:
		loc[in.Dst] = loc[in.A]
		t.Unary(in, fr)

	case ir.OpBin:
		a, b := loc[in.A], loc[in.B]
		if a.K == ir.KindRef || b.K == ir.KindRef {
			return m.fail(ErrType, in, fr, "arithmetic on reference")
		}
		var r int64
		switch in.Bin() {
		case ir.Add:
			r = a.I + b.I
		case ir.Sub:
			r = a.I - b.I
		case ir.Mul:
			r = a.I * b.I
		case ir.Div:
			if b.I == 0 {
				return m.fail(ErrDivZero, in, fr, "")
			}
			r = a.I / b.I
		case ir.Rem:
			if b.I == 0 {
				return m.fail(ErrDivZero, in, fr, "")
			}
			r = a.I % b.I
		case ir.And:
			r = a.I & b.I
		case ir.Or:
			r = a.I | b.I
		case ir.Xor:
			r = a.I ^ b.I
		case ir.Shl:
			r = a.I << (uint64(b.I) & 63)
		case ir.Shr:
			r = a.I >> (uint64(b.I) & 63)
		default:
			return m.fail(ErrType, in, fr, "bad binop %v", in.Bin())
		}
		loc[in.Dst] = IntVal(r)
		t.Binary(in, fr)

	case ir.OpNeg:
		a := loc[in.A]
		if a.K == ir.KindRef {
			return m.fail(ErrType, in, fr, "negation of reference")
		}
		loc[in.Dst] = IntVal(-a.I)
		t.Unary(in, fr)

	case ir.OpNot:
		a := loc[in.A]
		if a.Truthy() {
			loc[in.Dst] = IntVal(0)
		} else {
			loc[in.Dst] = IntVal(1)
		}
		t.Unary(in, fr)

	case ir.OpNew:
		o, err := m.newObject(in, fr)
		if err != nil {
			return err
		}
		loc[in.Dst] = RefVal(o)
		t.New(in, fr, o)

	case ir.OpNewArray:
		o, err := m.newArray(in, fr)
		if err != nil {
			return err
		}
		loc[in.Dst] = RefVal(o)
		t.NewArray(in, fr, o)

	case ir.OpLoadField:
		base, err := m.refOperand(in, fr, in.A, false)
		if err != nil {
			return err
		}
		if base.IsArray() || in.Field().Slot >= len(base.Fields) {
			return m.fail(ErrType, in, fr, "object %s has no field %s", base, in.Field().QualifiedName())
		}
		loc[in.Dst] = base.Fields[in.Field().Slot]
		t.LoadField(in, fr, base)

	case ir.OpStoreField:
		base, err := m.refOperand(in, fr, in.A, false)
		if err != nil {
			return err
		}
		if base.IsArray() || in.Field().Slot >= len(base.Fields) {
			return m.fail(ErrType, in, fr, "object %s has no field %s", base, in.Field().QualifiedName())
		}
		base.Fields[in.Field().Slot] = loc[in.B]
		t.StoreField(in, fr, base, loc[in.B])

	case ir.OpLoadStatic:
		loc[in.Dst] = m.Statics[in.Static().Slot]
		t.LoadStatic(in, fr)

	case ir.OpStoreStatic:
		m.Statics[in.Static().Slot] = loc[in.A]
		t.StoreStatic(in, fr, loc[in.A])

	case ir.OpALoad:
		arr, err := m.refOperand(in, fr, in.A, true)
		if err != nil {
			return err
		}
		idx := loc[in.B]
		if idx.K == ir.KindRef {
			return m.fail(ErrType, in, fr, "array index is a reference")
		}
		if idx.I < 0 || idx.I >= int64(len(arr.Elems)) {
			return m.fail(ErrBounds, in, fr, "index %d, length %d", idx.I, len(arr.Elems))
		}
		loc[in.Dst] = arr.Elems[idx.I]
		t.LoadElem(in, fr, arr, idx.I)

	case ir.OpAStore:
		arr, err := m.refOperand(in, fr, in.A, true)
		if err != nil {
			return err
		}
		idx := loc[in.B]
		if idx.K == ir.KindRef {
			return m.fail(ErrType, in, fr, "array index is a reference")
		}
		if idx.I < 0 || idx.I >= int64(len(arr.Elems)) {
			return m.fail(ErrBounds, in, fr, "index %d, length %d", idx.I, len(arr.Elems))
		}
		arr.Elems[idx.I] = loc[in.C2]
		t.StoreElem(in, fr, arr, idx.I, loc[in.C2])

	case ir.OpArrayLen:
		arr, err := m.refOperand(in, fr, in.A, true)
		if err != nil {
			return err
		}
		loc[in.Dst] = IntVal(int64(len(arr.Elems)))
		t.ArrayLen(in, fr, arr)

	case ir.OpIf:
		taken, err := m.compare(in, fr)
		if err != nil {
			return err
		}
		if taken {
			fr.PC = int(in.Target)
		}
		t.Branch(in, fr, taken)
		if taken {
			return nil
		}

	case ir.OpGoto:
		fr.PC = int(in.Target)
		return nil // no tracer hook for pure control transfer

	case ir.OpInstanceOf:
		v := loc[in.A]
		if v.K != ir.KindRef {
			return m.fail(ErrType, in, fr, "instanceof on non-reference")
		}
		res := int64(0)
		if v.Ref != nil && !v.Ref.IsArray() && v.Ref.Class.IsSubclassOf(in.Class()) {
			res = 1
		}
		loc[in.Dst] = IntVal(res)
		t.Unary(in, fr)

	case ir.OpCall:
		return m.doCall(fr, in)

	case ir.OpReturn:
		return m.doReturn(fr, in)

	case ir.OpNative:
		v, err := m.doNative(fr, in, in.Args())
		if err != nil {
			return err
		}
		if in.Dst >= 0 {
			loc[in.Dst] = v
		}
		t.Native(in, fr)

	default:
		return m.fail(ErrType, in, fr, "unknown opcode")
	}

	fr.PC++
	return nil
}

// refOperand loads a non-null reference from slot s, failing with the
// appropriate VM error otherwise. wantArray selects array vs instance.
func (m *Machine) refOperand(in *ir.Instr, fr *Frame, s int32, wantArray bool) (*Object, error) {
	v := fr.Locals[s]
	if v.K != ir.KindRef {
		return nil, m.fail(ErrType, in, fr, "expected reference in slot %d, got int", s)
	}
	if v.Ref == nil {
		return nil, m.fail(ErrNullDeref, in, fr, "")
	}
	if wantArray && !v.Ref.IsArray() {
		return nil, m.fail(ErrType, in, fr, "expected array, got %s", v.Ref)
	}
	return v.Ref, nil
}

func (m *Machine) doCall(fr *Frame, in *ir.Instr) error {
	callee := in.Callee()
	var recv *Object
	if !callee.Static {
		v := fr.Locals[in.Args()[0]]
		if v.K != ir.KindRef {
			return m.fail(ErrType, in, fr, "receiver is not a reference")
		}
		if v.Ref == nil {
			return m.fail(ErrNullDeref, in, fr, "call %s on null", callee.QualifiedName())
		}
		recv = v.Ref
		if recv.IsArray() {
			return m.fail(ErrType, in, fr, "method call on array")
		}
		// Virtual dispatch by name on the dynamic class.
		if target := recv.Class.LookupMethod(callee.Name); target != nil {
			callee = target
		} else {
			return m.fail(ErrType, in, fr, "class %s has no method %s", recv.Class.Name, callee.Name)
		}
	}
	if len(m.frames) >= m.MaxDepth {
		return m.fail(ErrStackOverflow, in, fr, "depth %d", len(m.frames))
	}
	if m.Tracer != nil {
		m.Tracer.BeforeCall(in, fr, callee, recv)
	}
	nf := &Frame{
		Method: callee,
		Locals: make([]Value, callee.NumLocals),
		RetDst: int(in.Dst),
		CallIn: in,
	}
	for i, a := range in.Args() {
		nf.Locals[i] = fr.Locals[a]
	}
	m.frames = append(m.frames, nf)
	if m.Tracer != nil {
		m.Tracer.EnterMethod(nf, recv)
	}
	return nil
}

func (m *Machine) doReturn(fr *Frame, in *ir.Instr) error {
	if m.Tracer != nil {
		m.Tracer.BeforeReturn(in, fr)
	}
	var ret Value
	if in.HasA {
		ret = fr.Locals[in.A]
	}
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) == 0 {
		m.lastReturn = ret
		return nil
	}
	caller := m.frames[len(m.frames)-1]
	callIn := fr.CallIn
	if in.HasA && fr.RetDst >= 0 {
		caller.Locals[fr.RetDst] = ret
	}
	if m.Tracer != nil {
		// Outside the Window the result is assigned but not reported.
		m.Tracer.AfterCall(callIn, caller, in.HasA && fr.RetDst >= 0 && m.Window.contains(m.Steps-1))
	}
	caller.PC++
	return nil
}
