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
// Each program has two kinds of table. The plain table's handlers only
// execute; a machine with no tracer runs it, and so does a traced machine
// outside its Window. The hooked table's handlers execute and then call
// the machine's Tracer with the resolved operands: a tracer's rules — the
// cost-benefit profiler's Figure 4 among them — run as direct calls,
// without an event record or a second opcode switch. Calls, returns and
// gotos share one handler across kinds. All mutable dispatch state — the
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
// themselves; the hooked table's report to m.tracer.
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

// tabKind selects a handler table: plain or hooked.
type tabKind uint8

const (
	plainTab tabKind = iota
	hookedTab
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
	if decodes(t.tab, meth) {
		return t
	}
	t = buildTab(meth, kind)
	tabs[id] = t
	return t
}

// methodTab returns the dispatch table of the machine's kind for meth plus
// this machine's inline caches for it, consulting the machine-local cache
// first and the shared per-program cache behind it. The two kinds of
// table decode one body alike, so a method's inline caches serve both;
// they are made afresh when neither of the machine's tables for the
// method matches its current code.
func (m *Machine) methodTab(meth *ir.Method) ([]dinstr, []icSite) {
	if m.tabs == nil {
		n := m.Prog.NumMethods()
		m.tabs, m.spare, m.ics = make([][]dinstr, n), make([][]dinstr, n), make([][]icSite, n)
	}
	id := meth.ID
	inRange := id >= 0 && id < len(m.tabs)
	if inRange && decodes(m.tabs[id], meth) {
		return m.tabs[id], m.ics[id]
	}
	t := sharedTab(m.Prog, meth, m.kind)
	if inRange && decodes(m.spare[id], meth) {
		m.tabs[id] = t.tab
		return t.tab, m.ics[id]
	}
	var ics []icSite
	if t.vcount > 0 {
		ics = make([]icSite, t.vcount)
	}
	if inRange {
		m.tabs[id] = t.tab
		m.ics[id] = ics
	}
	return t.tab, ics
}

// decodes reports whether tab was decoded from meth's current code.
func decodes(tab []dinstr, meth *ir.Method) bool {
	return len(tab) == len(meth.Code) && len(tab) > 0 && tab[0].in == &meth.Code[0]
}

// buildTab pre-decodes every instruction of meth into a table of the given
// kind. Instructions that report to a tracer get the kind's handler;
// calls, returns and gotos share one handler across kinds.
func buildTab(meth *ir.Method, kind tabKind) mtab {
	tab := make([]dinstr, len(meth.Code))
	vcount := 0
	pick := func(plain, hooked handlerFn) handlerFn {
		if kind == hookedTab {
			return hooked
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

func hConstInt(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = IntVal(d.imm)
	fr.PC++
	return nil
}

func hConstNull(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = Null
	fr.PC++
	return nil
}

func hMove(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = fr.Locals[d.a]
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

// finishBin stores an arithmetic result.
func finishBin(m *Machine, fr *Frame, d *dinstr, r int64) error {
	fr.Locals[d.dst] = IntVal(r)
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
	fr.Locals[d.dst] = RefVal(o)
	fr.PC++
	return nil
}

func hNewArray(m *Machine, fr *Frame, d *dinstr) error {
	o, err := m.newArray(d.in, fr)
	if err != nil {
		return err
	}
	fr.Locals[d.dst] = RefVal(o)
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
	fr.Locals[d.dst] = base.Fields[d.slot]
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
	base.Fields[d.slot] = fr.Locals[d.b]
	fr.PC++
	return nil
}

// noField fails a field access on an object without the field.
func (m *Machine) noField(fr *Frame, d *dinstr, base *Object) error {
	return m.fail(ErrType, d.in, fr, "object %s has no field %s", base, d.in.Field.QualifiedName())
}

func hLoadStatic(m *Machine, fr *Frame, d *dinstr) error {
	fr.Locals[d.dst] = m.Statics[d.slot]
	fr.PC++
	return nil
}

func hStoreStatic(m *Machine, fr *Frame, d *dinstr) error {
	m.Statics[d.slot] = fr.Locals[d.a]
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
	fr.Locals[d.dst] = arr.Elems[idx.I]
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
	arr.Elems[idx.I] = fr.Locals[d.c2]
	fr.PC++
	return nil
}

func hArrayLen(m *Machine, fr *Frame, d *dinstr) error {
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	fr.Locals[d.dst] = IntVal(int64(len(arr.Elems)))
	fr.PC++
	return nil
}

// finishIf branches.
func finishIf(m *Machine, fr *Frame, d *dinstr, taken bool) error {
	if taken {
		fr.PC = int(d.target)
	} else {
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
		// Outside the Window the result is assigned but not reported.
		m.tracer.AfterCall(fr.CallIn, caller, fr.RetDst >= 0 && m.kind == hookedTab)
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
	fr.PC++
	return nil
}

func hBadOp(m *Machine, fr *Frame, d *dinstr) error {
	return m.fail(ErrType, d.in, fr, "unknown opcode")
}
