package interp

// Handler-table dispatch. Instead of re-decoding each ir.Instr through the
// 200-line switch in Machine.step on every execution, methods get a side
// table of pre-resolved dinstr records: one handler function per opcode
// variant (per-BinOp arithmetic, per-Cmp branches, static vs virtual calls)
// with operands, field/static slots, branch targets and immediates already
// decoded. The main loop then runs d.fn(m, fr, d) — one indirect call, no
// opcode switch.
//
// Decoded tables are immutable, so they are shared by every machine running
// the same program (cached on ir.Program.TabCache, built under a mutex).
// Each program has two kinds of table. The plain table's handlers report
// events to the Tracer through the machine's reusable Event record. The
// profiled table's handlers call the typed Hooks of a machine whose Tracer
// is itself a Hooks implementation (see Machine.route): the cost-benefit
// profiler's rules run as direct calls with resolved operands, without an
// Event record or a second opcode switch. All mutable dispatch state — the
// inline caches — lives in per-machine icSite records, so concurrent
// profiles over one program race on nothing.
//
// Virtual call sites carry a monomorphic inline cache keyed by the
// receiver's dynamic class, with a bounded polymorphic fallback and a
// megamorphic regime that degrades to the plain name lookup.
//
// The original switch interpreter survives as the test reference behind
// Machine.RunReference (reference.go).

import (
	"sync"

	"lowutil/internal/ir"
)

// handlerFn executes one pre-decoded instruction. Handlers advance fr.PC
// themselves and report tracer events through m.ev (plain table) or
// m.hooks (profiled table).
type handlerFn func(m *Machine, fr *Frame, d *dinstr) error

// icPolyMax bounds the polymorphic inline-cache fallback; sites that see
// more receiver classes go megamorphic (plain lookup, no further installs).
const icPolyMax = 4

// icEntry is one polymorphic inline-cache way.
type icEntry struct {
	class  *ir.Class
	target *ir.Method
}

// icSite is the per-machine mutable state of one virtual call site: the
// monomorphic inline cache plus its polymorphic fallback. Sites live in
// per-machine per-method slices (Frame.ics), never in the shared tables.
type icSite struct {
	class  *ir.Class
	target *ir.Method
	poly   []icEntry
	mega   bool
}

// dinstr is a pre-decoded instruction: the handler plus everything it needs
// without touching the wider ir.Instr on the hot path. dinstr records are
// shared between machines and must not be written after construction.
type dinstr struct {
	fn handlerFn
	in *ir.Instr

	dst, a, b, c2 int32
	target        int32
	slot          int32 // field or static slot
	icIdx         int32 // virtual sites: index into the frame's icSite slice
	imm           int64

	// callee is the static call target, or the declared callee of a virtual
	// site (dispatch is by name on the receiver's dynamic class).
	callee *ir.Method
}

// mtab is one decoded method table plus the number of virtual call sites it
// contains (the size of the per-machine icSite slice it needs).
type mtab struct {
	tab    []dinstr
	vcount int
}

// tabKind selects a handler table: plain or profiled.
type tabKind uint8

const (
	plainTab tabKind = iota
	profiledTab
)

// progTabs is the per-program shared decode cache, hung off
// ir.Program.TabCache.
type progTabs struct {
	mu   sync.Mutex
	tabs [2][]mtab // by tabKind, then Method.ID
}

func progTabsOf(p *ir.Program) *progTabs {
	if v := p.TabCache.Load(); v != nil {
		return v.(*progTabs)
	}
	pt := &progTabs{}
	if p.TabCache.CompareAndSwap(nil, pt) {
		return pt
	}
	return p.TabCache.Load().(*progTabs)
}

// sharedTab returns the program-wide decoded table of the given kind for
// meth, building it once. Cached tables are revalidated against the
// method's current code slice: passes that rewrite bodies in place (SSA
// destruction + Reindex) replace Code, which invalidates any table built
// against the old slice.
func sharedTab(prog *ir.Program, meth *ir.Method, kind tabKind) mtab {
	pt := progTabsOf(prog)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	tabs := pt.tabs[kind]
	if tabs == nil {
		tabs = make([]mtab, prog.NumMethods())
		pt.tabs[kind] = tabs
	}
	id := meth.ID
	if id < 0 || id >= len(tabs) {
		return buildTab(meth, kind)
	}
	t := tabs[id]
	if len(t.tab) == len(meth.Code) && len(t.tab) > 0 && t.tab[0].in == &meth.Code[0] {
		return t
	}
	t = buildTab(meth, kind)
	tabs[id] = t
	return t
}

// methodTab returns the dispatch table for meth plus this machine's inline
// caches for it, consulting the machine-local cache first and the shared
// per-program cache behind it. The machine-local cache holds tables of the
// kind route chose; route empties it when the kind changes.
func (m *Machine) methodTab(meth *ir.Method) ([]dinstr, []icSite) {
	if m.tabs == nil {
		n := m.Prog.NumMethods()
		m.tabs = make([][]dinstr, n)
		m.ics = make([][]icSite, n)
	}
	id := meth.ID
	if id >= 0 && id < len(m.tabs) {
		if tab := m.tabs[id]; len(tab) == len(meth.Code) && len(tab) > 0 && tab[0].in == &meth.Code[0] {
			return tab, m.ics[id]
		}
	}
	t := sharedTab(m.Prog, meth, m.kind)
	var ics []icSite
	if t.vcount > 0 {
		ics = make([]icSite, t.vcount)
	}
	if id >= 0 && id < len(m.tabs) {
		m.tabs[id] = t.tab
		m.ics[id] = ics
	}
	return t.tab, ics
}

// buildTab pre-decodes every instruction of meth into a table of the given
// kind. Instructions that report events get the kind's handler; calls,
// returns and gotos share one handler across kinds.
func buildTab(meth *ir.Method, kind tabKind) mtab {
	tab := make([]dinstr, len(meth.Code))
	vcount := 0
	pick := func(plain, profiled handlerFn) handlerFn {
		if kind == profiledTab {
			return profiled
		}
		return plain
	}
	for i := range meth.Code {
		in := &meth.Code[i]
		d := &tab[i]
		d.in = in
		d.dst, d.a, d.b, d.c2 = int32(in.Dst), int32(in.A), int32(in.B), int32(in.C2)
		d.target = int32(in.Target)
		d.imm = in.Imm

		switch in.Op {
		case ir.OpConst:
			if in.IsNull {
				d.fn = pick(hConstNull, pConstNull)
			} else {
				d.fn = pick(hConstInt, pConstInt)
			}
		case ir.OpMove:
			d.fn = pick(hMove, pMove)
		case ir.OpBin:
			switch in.Bin {
			case ir.Add:
				d.fn = pick(hAdd, pAdd)
			case ir.Sub:
				d.fn = pick(hSub, pSub)
			case ir.Mul:
				d.fn = pick(hMul, pMul)
			case ir.Div:
				d.fn = pick(hDiv, pDiv)
			case ir.Rem:
				d.fn = pick(hRem, pRem)
			case ir.And:
				d.fn = pick(hAnd, pAnd)
			case ir.Or:
				d.fn = pick(hOr, pOr)
			case ir.Xor:
				d.fn = pick(hXor, pXor)
			case ir.Shl:
				d.fn = pick(hShl, pShl)
			case ir.Shr:
				d.fn = pick(hShr, pShr)
			default:
				d.fn = hBadBin
			}
		case ir.OpNeg:
			d.fn = pick(hNeg, pNeg)
		case ir.OpNot:
			d.fn = pick(hNot, pNot)
		case ir.OpNew:
			d.fn = pick(hNew, pNew)
		case ir.OpNewArray:
			d.fn = pick(hNewArray, pNewArray)
		case ir.OpLoadField:
			d.slot = int32(in.Field.Slot)
			d.fn = pick(hLoadField, pLoadField)
		case ir.OpStoreField:
			d.slot = int32(in.Field.Slot)
			d.fn = pick(hStoreField, pStoreField)
		case ir.OpLoadStatic:
			d.slot = int32(in.Static.Slot)
			d.fn = pick(hLoadStatic, pLoadStatic)
		case ir.OpStoreStatic:
			d.slot = int32(in.Static.Slot)
			d.fn = pick(hStoreStatic, pStoreStatic)
		case ir.OpALoad:
			d.fn = pick(hALoad, pALoad)
		case ir.OpAStore:
			d.fn = pick(hAStore, pAStore)
		case ir.OpArrayLen:
			d.fn = pick(hArrayLen, pArrayLen)
		case ir.OpIf:
			switch in.Cmp {
			case ir.Eq:
				d.fn = pick(hIfEq, pIfEq)
			case ir.Ne:
				d.fn = pick(hIfNe, pIfNe)
			case ir.Lt:
				d.fn = pick(hIfLt, pIfLt)
			case ir.Le:
				d.fn = pick(hIfLe, pIfLe)
			case ir.Gt:
				d.fn = pick(hIfGt, pIfGt)
			case ir.Ge:
				d.fn = pick(hIfGe, pIfGe)
			default:
				d.fn = hBadIf
			}
		case ir.OpGoto:
			d.fn = hGoto
		case ir.OpInstanceOf:
			d.fn = pick(hInstanceOf, pInstanceOf)
		case ir.OpCall:
			d.callee = in.Callee
			if in.Callee.Static {
				d.fn = hCallStatic
			} else {
				d.a = int32(in.Args[0]) // receiver slot
				d.icIdx = int32(vcount)
				vcount++
				d.fn = hCallVirtual
			}
		case ir.OpReturn:
			if in.HasA {
				d.fn = hReturnVal
			} else {
				d.fn = hReturnVoid
			}
		case ir.OpNative:
			d.fn = pick(hNative, pNative)
		default:
			d.fn = hBadOp
		}
	}
	return mtab{tab: tab, vcount: vcount}
}

// The emit helpers publish events through the machine's single reusable
// record, writing only the fields the opcode defines (see the Event doc:
// fields an opcode does not define are unspecified). Assigning fields
// individually instead of copying a whole Event keeps the per-event GC
// write-barrier work to the pointer stores that actually change: Frame only
// changes at call boundaries (setFrame), and a Value whose Ref is nil over a
// nil Ref is stored as scalars only (setVal), so the common arithmetic event
// pays one barriered store — In. The pointer handed to the tracer is only
// valid for the duration of Exec.

// setFrame publishes fr, skipping the pointer store (and its write barrier)
// when the frame is unchanged since the last event.
func (m *Machine) setFrame(fr *Frame) {
	if m.ev.Frame != fr {
		m.ev.Frame = fr
	}
}

// setVal publishes v. Int values over an event whose Val.Ref is already nil
// are written as scalars, keeping reference write barriers off the
// arithmetic hot path.
func (m *Machine) setVal(v Value) {
	ev := &m.ev
	if v.Ref == nil && ev.Val.Ref == nil {
		ev.Val.K, ev.Val.I = v.K, v.I
		return
	}
	ev.Val = v
}

// emitV reports a value-producing instruction.
func (m *Machine) emitV(in *ir.Instr, fr *Frame, v Value) {
	ev := &m.ev
	ev.In = in
	m.setFrame(fr)
	m.setVal(v)
	m.tracer.Exec(ev)
}

// emitNew reports an allocation.
func (m *Machine) emitNew(in *ir.Instr, fr *Frame, o *Object, v Value) {
	ev := &m.ev
	ev.In, ev.New = in, o
	m.setFrame(fr)
	m.setVal(v)
	m.tracer.Exec(ev)
}

// emitBase reports a field access or array-length read on base.
func (m *Machine) emitBase(in *ir.Instr, fr *Frame, base *Object, v Value) {
	ev := &m.ev
	ev.In, ev.Base = in, base
	m.setFrame(fr)
	m.setVal(v)
	m.tracer.Exec(ev)
}

// emitIndexed reports an array element access.
func (m *Machine) emitIndexed(in *ir.Instr, fr *Frame, base *Object, idx int64, v Value) {
	ev := &m.ev
	ev.In, ev.Base, ev.Index = in, base, idx
	m.setFrame(fr)
	m.setVal(v)
	m.tracer.Exec(ev)
}

// emitTaken reports a branch.
func (m *Machine) emitTaken(in *ir.Instr, fr *Frame, taken bool) {
	ev := &m.ev
	ev.In, ev.Taken = in, taken
	m.setFrame(fr)
	m.tracer.Exec(ev)
}

func hConstInt(m *Machine, fr *Frame, d *dinstr) error {
	v := IntVal(d.imm)
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hConstNull(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = Null
	if m.tracer != nil {
		m.emitV(d.in, fr, Null)
	}
	fr.PC++
	return nil
}

func hMove(m *Machine, fr *Frame, d *dinstr) error {
	v := fr.Locals[d.a]
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

// binOperands loads the integer operands of an arithmetic handler.
func binOperands(m *Machine, fr *Frame, d *dinstr) (int64, int64, error) {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		return 0, 0, m.fail(ErrType, d.in, fr, "arithmetic on reference")
	}
	return a.I, b.I, nil
}

// finishBin stores and reports an arithmetic result.
func finishBin(m *Machine, fr *Frame, d *dinstr, r int64) error {
	v := IntVal(r)
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hAdd(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a+b)
}

func hSub(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a-b)
}

func hMul(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a*b)
}

func hDiv(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	if b == 0 {
		return m.fail(ErrDivZero, d.in, fr, "")
	}
	return finishBin(m, fr, d, a/b)
}

func hRem(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	if b == 0 {
		return m.fail(ErrDivZero, d.in, fr, "")
	}
	return finishBin(m, fr, d, a%b)
}

func hAnd(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a&b)
}

func hOr(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a|b)
}

func hXor(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a^b)
}

func hShl(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a<<(uint64(b)&63))
}

func hShr(m *Machine, fr *Frame, d *dinstr) error {
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, a>>(uint64(b)&63))
}

func hBadBin(m *Machine, fr *Frame, d *dinstr) error {
	if _, _, err := binOperands(m, fr, d); err != nil {
		return err
	}
	return m.fail(ErrType, d.in, fr, "bad binop %v", d.in.Bin)
}

func hNeg(m *Machine, fr *Frame, d *dinstr) error {
	a := fr.Locals[d.a]
	if a.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "negation of reference")
	}
	return finishBin(m, fr, d, -a.I)
}

func hNot(m *Machine, fr *Frame, d *dinstr) error {
	var r int64
	if !fr.Locals[d.a].Truthy() {
		r = 1
	}
	return finishBin(m, fr, d, r)
}

func hNew(m *Machine, fr *Frame, d *dinstr) error {
	o, err := m.newObject(d.in, fr)
	if err != nil {
		return err
	}
	v := RefVal(o)
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitNew(d.in, fr, o, v)
	}
	fr.PC++
	return nil
}

func hNewArray(m *Machine, fr *Frame, d *dinstr) error {
	o, err := m.newArray(d.in, fr)
	if err != nil {
		return err
	}
	v := RefVal(o)
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitNew(d.in, fr, o, v)
	}
	fr.PC++
	return nil
}

// refLocal loads a non-null object reference from local slot s.
func refLocal(m *Machine, fr *Frame, d *dinstr, s int32) (*Object, error) {
	v := fr.Locals[s]
	if v.K != ir.KindRef {
		return nil, m.fail(ErrType, d.in, fr, "expected reference in slot %d, got int", s)
	}
	if v.Ref == nil {
		return nil, m.fail(ErrNullDeref, d.in, fr, "")
	}
	return v.Ref, nil
}

func hLoadField(m *Machine, fr *Frame, d *dinstr) error {
	base, err := refLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	if base.IsArray() || int(d.slot) >= len(base.Fields) {
		return m.noField(fr, d, base)
	}
	v := base.Fields[d.slot]
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitBase(d.in, fr, base, v)
	}
	fr.PC++
	return nil
}

func hStoreField(m *Machine, fr *Frame, d *dinstr) error {
	base, err := refLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	if base.IsArray() || int(d.slot) >= len(base.Fields) {
		return m.noField(fr, d, base)
	}
	v := fr.Locals[d.b]
	base.Fields[d.slot] = v
	if m.tracer != nil {
		m.emitBase(d.in, fr, base, v)
	}
	fr.PC++
	return nil
}

// noField fails a field access on an object without the field.
func (m *Machine) noField(fr *Frame, d *dinstr, base *Object) error {
	return m.fail(ErrType, d.in, fr, "object %s has no field %s", base, d.in.Field.QualifiedName())
}

func hLoadStatic(m *Machine, fr *Frame, d *dinstr) error {
	v := m.Statics[d.slot]
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hStoreStatic(m *Machine, fr *Frame, d *dinstr) error {
	v := fr.Locals[d.a]
	m.Statics[d.slot] = v
	if m.tracer != nil {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

// arrayLocal loads a non-null array reference from local slot s.
func arrayLocal(m *Machine, fr *Frame, d *dinstr, s int32) (*Object, error) {
	o, err := refLocal(m, fr, d, s)
	if err != nil {
		return nil, err
	}
	if !o.IsArray() {
		return nil, m.fail(ErrType, d.in, fr, "expected array, got %s", o)
	}
	return o, nil
}

// badIndex fails an element access on arr whose index operand B is a
// reference or out of bounds.
func (m *Machine) badIndex(fr *Frame, d *dinstr, arr *Object) error {
	idx := fr.Locals[d.b]
	if idx.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "array index is a reference")
	}
	return m.fail(ErrBounds, d.in, fr, "index %d, length %d", idx.I, len(arr.Elems))
}

func hALoad(m *Machine, fr *Frame, d *dinstr) error {
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	idx := fr.Locals[d.b]
	if idx.K == ir.KindRef || idx.I < 0 || idx.I >= int64(len(arr.Elems)) {
		return m.badIndex(fr, d, arr)
	}
	v := arr.Elems[idx.I]
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitIndexed(d.in, fr, arr, idx.I, v)
	}
	fr.PC++
	return nil
}

func hAStore(m *Machine, fr *Frame, d *dinstr) error {
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
	if m.tracer != nil {
		m.emitIndexed(d.in, fr, arr, idx.I, v)
	}
	fr.PC++
	return nil
}

func hArrayLen(m *Machine, fr *Frame, d *dinstr) error {
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	v := IntVal(int64(len(arr.Elems)))
	fr.Locals[d.dst] = v
	if m.tracer != nil {
		m.emitBase(d.in, fr, arr, v)
	}
	fr.PC++
	return nil
}

// finishIf branches and reports the branch event. The event fires after a
// taken branch retargets PC but before a fall-through advances it, matching
// the reference switch ordering exactly.
func finishIf(m *Machine, fr *Frame, d *dinstr, taken bool) error {
	if taken {
		fr.PC = int(d.target)
	}
	if m.tracer != nil {
		m.emitTaken(d.in, fr, taken)
	}
	if !taken {
		fr.PC++
	}
	return nil
}

func hIfEq(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		taken, err := m.compare(d.in, fr)
		if err != nil {
			return err
		}
		return finishIf(m, fr, d, taken)
	}
	return finishIf(m, fr, d, a.I == b.I)
}

func hIfNe(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		taken, err := m.compare(d.in, fr)
		if err != nil {
			return err
		}
		return finishIf(m, fr, d, taken)
	}
	return finishIf(m, fr, d, a.I != b.I)
}

func hIfLt(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return finishIf(m, fr, d, a.I < b.I)
}

func hIfLe(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return finishIf(m, fr, d, a.I <= b.I)
}

func hIfGt(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return finishIf(m, fr, d, a.I > b.I)
}

func hIfGe(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return finishIf(m, fr, d, a.I >= b.I)
}

func hBadIf(m *Machine, fr *Frame, d *dinstr) error {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return m.fail(ErrType, d.in, fr, "bad comparison")
}

func hGoto(m *Machine, fr *Frame, d *dinstr) error {
	fr.PC = int(d.target) // pure control transfer emits no event
	return nil
}

func hInstanceOf(m *Machine, fr *Frame, d *dinstr) error {
	v := fr.Locals[d.a]
	if v.K != ir.KindRef {
		return m.fail(ErrType, d.in, fr, "instanceof on non-reference")
	}
	return finishBin(m, fr, d, isInstance(v, d.in.Class))
}

// isInstance is instanceof's result for a reference v: 1 when v is a
// non-null instance of cls or a subclass.
func isInstance(v Value, cls *ir.Class) int64 {
	if v.Ref != nil && !v.Ref.IsArray() && v.Ref.Class.IsSubclassOf(cls) {
		return 1
	}
	return 0
}

func hCallStatic(m *Machine, fr *Frame, d *dinstr) error {
	return m.pushCall(fr, d, d.callee, nil)
}

func hCallVirtual(m *Machine, fr *Frame, d *dinstr) error {
	v := fr.Locals[d.a]
	if v.K != ir.KindRef {
		return m.fail(ErrType, d.in, fr, "receiver is not a reference")
	}
	if v.Ref == nil {
		return m.fail(ErrNullDeref, d.in, fr, "call %s on null", d.callee.QualifiedName())
	}
	recv := v.Ref
	if recv.IsArray() {
		return m.fail(ErrType, d.in, fr, "method call on array")
	}
	cls := recv.Class
	ic := &fr.ics[d.icIdx]
	var callee *ir.Method
	if cls == ic.class {
		m.ICHits++
		callee = ic.target
	} else if callee = m.dispatchSlow(d, ic, cls); callee == nil {
		return m.fail(ErrType, d.in, fr, "class %s has no method %s", cls.Name, d.callee.Name)
	}
	return m.pushCall(fr, d, callee, recv)
}

// dispatchSlow services an inline-cache miss: probe the polymorphic ways,
// then fall back to the name lookup and install the new (class, target)
// binding — monomorphic first, then polymorphic up to icPolyMax ways, then
// megamorphic (no installs, every dispatch pays the lookup).
func (m *Machine) dispatchSlow(d *dinstr, ic *icSite, cls *ir.Class) *ir.Method {
	for i := range ic.poly {
		if ic.poly[i].class == cls {
			m.ICHits++
			return ic.poly[i].target
		}
	}
	m.ICMisses++
	target := cls.LookupMethod(d.callee.Name)
	if target == nil {
		return nil
	}
	switch {
	case ic.mega:
	case ic.class == nil:
		ic.class, ic.target = cls, target
	case len(ic.poly) < icPolyMax:
		ic.poly = append(ic.poly, icEntry{cls, target})
	default:
		ic.mega = true
	}
	return target
}

// pushCall performs the common tail of both call handlers, mirroring the
// reference engine's doCall. Frames come from the machine's pool: a frame popped by a
// return handler is dead (the machine never revisits it, and tracers key
// their state off the live frame's Shadow), so it is recycled here instead
// of allocating a frame and locals slice per call.
func (m *Machine) pushCall(fr *Frame, d *dinstr, callee *ir.Method, recv *Object) error {
	if len(m.frames) >= m.MaxDepth {
		return m.fail(ErrStackOverflow, d.in, fr, "depth %d", len(m.frames))
	}
	if m.tracer != nil {
		m.tracer.BeforeCall(d.in, fr, callee, recv)
	}
	var nf *Frame
	if n := len(m.framePool); n > 0 {
		nf = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
		nf.Method = callee
		if cap(nf.Locals) < callee.NumLocals {
			nf.Locals = make([]Value, callee.NumLocals)
		} else {
			// Argument slots are overwritten below; only the rest needs
			// clearing to erase the previous tenant's values.
			nf.Locals = nf.Locals[:callee.NumLocals]
			clear(nf.Locals[len(d.in.Args):])
		}
		nf.PC = 0
		nf.RetDst = int(d.dst)
		nf.CallIn = d.in
		nf.Shadow = nil
	} else {
		nf = &Frame{
			Method: callee,
			Locals: make([]Value, callee.NumLocals),
			RetDst: int(d.dst),
			CallIn: d.in,
		}
	}
	for i, a := range d.in.Args {
		nf.Locals[i] = fr.Locals[a]
	}
	nf.tab, nf.ics = m.methodTab(callee)
	m.frames = append(m.frames, nf)
	if m.tracer != nil {
		m.tracer.EnterMethod(nf, recv)
	}
	return nil
}

func hReturnVal(m *Machine, fr *Frame, d *dinstr) error {
	if m.tracer != nil {
		m.tracer.BeforeReturn(d.in, fr)
	}
	ret := fr.Locals[d.a]
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) <= m.loopBase {
		m.lastReturn = ret
		m.framePool = append(m.framePool, fr)
		return nil
	}
	caller := m.frames[len(m.frames)-1]
	if fr.RetDst >= 0 {
		caller.Locals[fr.RetDst] = ret
	}
	if m.tracer != nil {
		m.tracer.AfterCall(fr.CallIn, caller, fr.RetDst >= 0)
	}
	caller.PC++
	m.framePool = append(m.framePool, fr)
	return nil
}

func hReturnVoid(m *Machine, fr *Frame, d *dinstr) error {
	if m.tracer != nil {
		m.tracer.BeforeReturn(d.in, fr)
	}
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) <= m.loopBase {
		m.lastReturn = Value{}
		m.framePool = append(m.framePool, fr)
		return nil
	}
	caller := m.frames[len(m.frames)-1]
	if m.tracer != nil {
		m.tracer.AfterCall(fr.CallIn, caller, false)
	}
	caller.PC++
	m.framePool = append(m.framePool, fr)
	return nil
}

func hNative(m *Machine, fr *Frame, d *dinstr) error {
	v, err := m.doNative(fr, d.in)
	if err != nil {
		return err
	}
	if d.dst >= 0 {
		fr.Locals[d.dst] = v
	}
	if m.tracer != nil {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hBadOp(m *Machine, fr *Frame, d *dinstr) error {
	return m.fail(ErrType, d.in, fr, "unknown opcode")
}
