// Package profiler builds the cost-benefit dependence graph Gcost online,
// implementing the instrumentation semantics of Figure 4 of the paper as an
// interp.Tracer. The rules are the tracer's hooks, one per opcode class,
// which a traced machine calls straight from its hooked handler table.
//
// For every storage location l the profiler maintains a shadow location l'
// holding the dependence-graph node that last wrote l: locals get shadow
// slots parallel to the frame's locals, heap locations get per-object shadow
// slices hung off interp.Object.Shadow (the "shadow heap"), and statics get
// a parallel static shadow table. A tracking stack passes dependences and
// the receiver-object context chain across calls, exactly as in the paper.
//
// The profiler is thin by default: loads and stores do not consume the base
// pointer. Setting Options.Traditional includes base-pointer dependences,
// giving the conventional dynamic-slicing baseline used in the ablation
// benchmarks.
package profiler

import (
	"fmt"
	"slices"

	"lowutil/internal/contextenc"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// Options configures a Profiler.
type Options struct {
	// Slots is the paper's parameter s — the number of context slots per
	// instruction. Zero means 16.
	Slots int
	// Traditional includes base-pointer dependences at loads/stores,
	// turning thin slicing into traditional dynamic slicing.
	Traditional bool
	// TrackCR enables exact context-conflict-ratio bookkeeping. It costs a
	// dense table of instructions × slots entries (the last context seen in
	// each slot, and how many distinct ones), plus a set for each slot that
	// sees a second distinct context. Events that repeat their slot's last
	// context stay on the inlined fast path.
	TrackCR bool
	// Unabstracted disables context abstraction entirely: every instruction
	// *instance* becomes its own node, as in conventional dynamic slicing.
	// The node count is then bounded only by UnabstractedCap. Used by the
	// abstract-vs-concrete ablation.
	Unabstracted bool
	// UnabstractedCap caps per-instruction instance nodes in Unabstracted
	// mode (0 means 1<<20); beyond the cap, instances fold into the last
	// node so the experiment can finish instead of exhausting memory.
	UnabstractedCap int
	// TrackControl adds, to every value-producing node, a dependence on the
	// most recently executed predicate in the same frame — the §3.2
	// "considering vs ignoring control decision making" alternative (with
	// the closest dynamic predicate as the control scope). Costs then
	// include the effort of making the enclosing control decision.
	TrackControl bool
}

// frameShadow is the per-frame tracker state: shadow locals plus the encoded
// receiver-object context chain of the frame.
type frameShadow struct {
	// nodes holds one shadow Ref per local slot (the node that last wrote
	// it); Refs keep the per-event shadow stores free of GC write barriers.
	nodes []depgraph.Ref
	ctx   contextenc.Encoded
	slot  int // h(ctx), precomputed
	// lastPred is the most recently executed predicate node in this frame
	// (TrackControl mode only).
	lastPred depgraph.Ref
}

// objShadow is the per-object tracker state: the object tag (environment P —
// the context-annotated allocation node) and shadow slots for fields or
// array elements. The tag is a Ref, not a pointer, so tagging an allocation
// is a scalar store (no GC write barrier on the per-allocation path).
type objShadow struct {
	tag   depgraph.Ref
	slots []depgraph.Ref
}

// Profiler is an interp.Tracer that constructs Gcost.
type Profiler struct {
	G    *depgraph.Graph
	Prog *ir.Program

	slots    contextenc.Slots
	cr       *contextenc.ConflictTracker
	thin     bool
	unabs    bool
	unabsCap int
	control  bool

	// statics is the shadow of static-field storage.
	statics []depgraph.Ref

	// pendingCall carries argument shadows and callee context between
	// BeforeCall and EnterMethod (the tracking stack push). pendingSlot is
	// h(pendingCtx), staged alongside it: static calls inherit the caller's
	// context unchanged, so their slot is copied rather than recomputed —
	// Slot is a hardware divide, paid per call otherwise.
	pendingArgs []depgraph.Ref
	pendingCtx  contextenc.Encoded
	pendingSlot int
	havePending bool
	// pendingRet carries the return value's node between BeforeReturn and
	// AfterCall (the tracking stack pop).
	pendingRet depgraph.Ref

	// fsPool recycles frameShadow records: a frame's shadow dies with the
	// frame at BeforeReturn (the machine never revisits a popped frame), so
	// EnterMethod can reuse it instead of allocating per call. Frames
	// abandoned on error simply aren't recycled.
	fsPool []*frameShadow

	// curFrame/cur memoize the active frame's shadow so the per-event
	// fshadow lookup skips the interface type assertion. EnterMethod and the
	// assertion miss path install the pair; BeforeReturn drops it when the
	// cached frame pops (its record returns to fsPool).
	curFrame *interp.Frame
	cur      *frameShadow

	// tIdx/tFreq/tW cache the graph's dense-table view (depgraph.DenseTables)
	// and fast gates the inlined intern probe: set unless a per-event extra
	// (unabstracted domain, control deps) is configured. tFreq is re-fetched
	// after every intern miss (the table grows). tLast is the conflict
	// tracker's last-context table (nil without TrackCR), laid out like
	// tIdx: an event whose context differs from its slot's last one leaves
	// the fast path so the tracker can record it.
	tIdx  []int32
	tFreq []int64
	tLast []contextenc.Encoded
	tW    int
	fast  bool

	// osSlab and slotSlab back objShadow allocation: records and shadow-slot
	// arrays are carved off chunk-at-a-time so the per-object miss path in
	// oshadow costs two slice headers instead of two heap allocations.
	osSlab   []objShadow
	slotSlab []depgraph.Ref

	// instCount counts instances per instruction in Unabstracted mode.
	instCount []int

	// memo holds one row per node, indexed by Ref: the link memo and the
	// heap-effect memo (see memoRow). nil turns both off. It is profiler
	// state, not part of Gcost, so it changes neither the encoded graph nor
	// ApproxBytes.
	memo []memoRow
}

// memoRow is one node's memo. link holds, per operand position, the
// producer of the dep edge last linked there. base and val key the heap
// effect the node registered last: base is the accessed object's tag plus
// one, so a zero row means nothing registered yet (tag 0, an object
// allocated while tracking was off, is a real key), and val is the stored
// reference's tag (0 for none).
type memoRow struct {
	link      [memoWidth]depgraph.Ref
	base, val depgraph.Ref
}

// Operand positions in the link memo: up to three operands of one
// instruction, plus the control dependence of TrackControl mode.
const (
	memoWidth   = 4
	controlSlot = memoWidth - 1
)

// MaxTableEntries bounds the dense per-(instruction, slot) tables New
// sizes — the graph's intern index and the conflict tracker's tables each
// hold NumInstrs × (s+1) entries. The budget admits the default 16 slots on
// the largest source the server accepts (16 MiB; dense MJ compiles to about
// one instruction per byte, and the budget allows 1.8) and rejects slot
// counts that would otherwise end the process with an out-of-memory fatal
// error, which no recover can catch.
const MaxTableEntries = 1 << 29

// MaxSlots returns the largest s whose tables fit MaxTableEntries for a
// program of numInstrs instructions.
func MaxSlots(numInstrs int) int {
	return MaxTableEntries/max(numInstrs, 1) - 1
}

// New returns a Profiler over prog. It panics if opts.Slots exceeds
// MaxSlots for prog; callers taking s from users check it first.
func New(prog *ir.Program, opts Options) *Profiler {
	s := opts.Slots
	if s == 0 {
		s = 16
	}
	if s > MaxSlots(prog.NumInstrs()) {
		panic(fmt.Sprintf("profiler: %d slots exceed the table budget for %d instructions", s, prog.NumInstrs()))
	}
	// The dense graph's direct index is sized to the context-slot domain:
	// d ∈ [NoContext, s). Unabstracted occurrence indices overflow into its
	// map-backed fallback by design.
	p := &Profiler{
		G:       depgraph.NewSized(prog, s-1),
		Prog:    prog,
		slots:   contextenc.NewSlots(s),
		thin:    !opts.Traditional,
		unabs:   opts.Unabstracted,
		control: opts.TrackControl,
		statics: make([]depgraph.Ref, len(prog.Statics)),
	}
	if opts.TrackCR {
		p.cr = contextenc.NewConflictTracker(p.slots, prog.NumInstrs())
	}
	if p.unabs {
		p.instCount = make([]int, prog.NumInstrs())
		p.unabsCap = opts.UnabstractedCap
		if p.unabsCap == 0 {
			p.unabsCap = 1 << 20
		}
	} else {
		// Instance nodes never see an edge twice, so only the abstracted
		// modes keep the memo.
		p.memo = make([]memoRow, 0, 64)
	}
	if !p.unabs && !p.control {
		t := p.G.DenseTables()
		p.tIdx, p.tFreq, p.tW = t.Idx, t.Freq, t.Width
		if p.cr != nil {
			p.tLast = p.cr.Last()
		}
		p.fast = true
	}
	return p
}

// CR returns the conflict tracker (nil unless TrackCR was set).
func (p *Profiler) CR() *contextenc.ConflictTracker { return p.cr }

// Slots returns the configured s.
func (p *Profiler) Slots() int { return p.slots.S }

// ShadowNodes exposes the frame's shadow locals: for each local slot, the
// node that last wrote it (nil if untracked). Wrapping clients use it to
// observe tracking data without re-implementing Figure 4; the slice is
// materialized per call, so it is not for per-event use.
func (p *Profiler) ShadowNodes(fr *interp.Frame) []*depgraph.Node {
	refs := p.fshadow(fr).nodes
	out := make([]*depgraph.Node, len(refs))
	for i, r := range refs {
		out[i] = p.G.At(r)
	}
	return out
}

// fshadow returns (creating if needed) the frame's shadow state.
func (p *Profiler) fshadow(fr *interp.Frame) *frameShadow {
	if fr == p.curFrame {
		return p.cur
	}
	if fs, ok := fr.Shadow.(*frameShadow); ok {
		p.curFrame, p.cur = fr, fs
		return fs
	}
	fs := &frameShadow{nodes: make([]depgraph.Ref, len(fr.Locals))}
	fs.slot = p.slots.Slot(fs.ctx)
	fr.Shadow = fs
	p.curFrame, p.cur = fr, fs
	return fs
}

// newObjShadow carves a shadow record with n slots from the slabs.
func (p *Profiler) newObjShadow(n int) *objShadow {
	if len(p.osSlab) == 0 {
		p.osSlab = make([]objShadow, 256)
	}
	os := &p.osSlab[0]
	p.osSlab = p.osSlab[1:]
	if n > 0 {
		if len(p.slotSlab) < n {
			c := 1024
			if n > c {
				c = n
			}
			p.slotSlab = make([]depgraph.Ref, c)
		}
		os.slots = p.slotSlab[:n:n]
		p.slotSlab = p.slotSlab[n:]
	}
	return os
}

// oshadow returns (creating if needed) the object's shadow state.
func (p *Profiler) oshadow(o *interp.Object) *objShadow {
	if os, ok := o.Shadow.(*objShadow); ok {
		return os
	}
	var n int
	if o.IsArray() {
		n = len(o.Elems)
	} else {
		n = len(o.Fields)
	}
	os := p.newObjShadow(n)
	o.Shadow = os
	return os
}

// node maps an instruction instance executing in frame shadow fs to its
// abstract node and bumps its frequency (the Touch of Definition 2's
// abstraction function f_a).
func (p *Profiler) node(in *ir.Instr, fs *frameShadow) *depgraph.Node {
	var n *depgraph.Node
	if p.unabs {
		c := p.instCount[in.ID]
		if c < p.unabsCap {
			p.instCount[in.ID] = c + 1
		}
		n = p.G.TouchFast(in, c)
	} else {
		if p.cr != nil {
			p.cr.Observe(in.ID, fs.ctx)
		}
		n = p.G.TouchFast(in, fs.slot)
	}
	if p.control {
		p.link(n.Ref(), controlSlot, fs.lastPred)
	}
	return n
}

// consumerNode maps a predicate or native instruction to its context-free
// node.
func (p *Profiler) consumerNode(in *ir.Instr) *depgraph.Node {
	return p.G.TouchFast(in, depgraph.NoContext)
}

// eventRefFast is the inlined intern hit path: probe the cached dense index
// for (in, fs.slot) and, when conflicts are tracked, check that the slot's
// last context is fs.ctx; then bump the frequency table. Returns NilRef on
// a miss, on a context change, or when the fast path is off; callers then
// take eventRefSlow. A hit on the intern index implies the tracker has
// visited the slot: the profiler creates a context node only on an event
// it also hands to the tracker, so the last-context entry is meaningful.
func (p *Profiler) eventRefFast(in *ir.Instr, fs *frameShadow) depgraph.Ref {
	if !p.fast {
		return 0
	}
	off := in.ID*p.tW + fs.slot + 1
	if v := p.tIdx[off]; v != 0 && (p.tLast == nil || p.tLast[off] == fs.ctx) {
		p.tFreq[v-1]++
		return depgraph.Ref(v)
	}
	return 0
}

// eventRefSlow records the event's context and interns on a dense miss
// (re-fetching the grown frequency table), or runs the general node
// mapping when the fast path is off.
func (p *Profiler) eventRefSlow(in *ir.Instr, fs *frameShadow) depgraph.Ref {
	if p.fast {
		if p.cr != nil {
			p.cr.Observe(in.ID, fs.ctx)
		}
		n := p.G.Touch(in, fs.slot)
		p.tFreq = p.G.DenseTables().Freq
		return n.Ref()
	}
	return p.node(in, fs).Ref()
}

// consumerRefFast is eventRefFast for context-free consumer nodes (d =
// NoContext, dense row offset 0).
func (p *Profiler) consumerRefFast(in *ir.Instr) depgraph.Ref {
	if !p.fast {
		return 0
	}
	if v := p.tIdx[in.ID*p.tW]; v != 0 {
		p.tFreq[v-1]++
		return depgraph.Ref(v)
	}
	return 0
}

// consumerRefSlow is eventRefSlow for consumer nodes.
func (p *Profiler) consumerRefSlow(in *ir.Instr) depgraph.Ref {
	if p.fast {
		n := p.G.Touch(in, depgraph.NoContext)
		p.tFreq = p.G.DenseTables().Freq
		return n.Ref()
	}
	return p.consumerNode(in).Ref()
}

// eventRef maps the event to its node for the hooks whose other work
// outweighs a call: allocations and heap accesses.
func (p *Profiler) eventRef(in *ir.Instr, fs *frameShadow) depgraph.Ref {
	if r := p.eventRefFast(in, fs); r != 0 {
		return r
	}
	return p.eventRefSlow(in, fs)
}

// link adds the dep edge from → to, where to produced the operand at
// position pos of from's instruction. A loop links the same producer at the
// same position on every iteration, so link remembers, per node and
// position, the producer it last linked, and a repeat costs one compare
// instead of a scan of the node's dep set. An entry is written only after
// its edge is in the graph, so a hit never skips a missing edge.
func (p *Profiler) link(from depgraph.Ref, pos int, to depgraph.Ref) {
	if int(from) < len(p.memo) && p.memo[from].link[pos] == to {
		return
	}
	p.linkSlow(from, pos, to)
}

// linkSlow adds the edge and records it.
func (p *Profiler) linkSlow(from depgraph.Ref, pos int, to depgraph.Ref) {
	p.G.AddDepRefs(from, to)
	if m := p.row(from); m != nil {
		m.link[pos] = to
	}
}

// row returns node r's memo row, growing the memo over the nodes interned
// since the last growth, or nil when the memo is off. Rows are indexed by
// Ref, so row 0 (the nil Ref's) stays unused.
func (p *Profiler) row(r depgraph.Ref) *memoRow {
	if p.memo == nil {
		return nil
	}
	if int(r) >= len(p.memo) {
		n := p.G.NumNodes() + 1
		p.memo = slices.Grow(p.memo, n-len(p.memo))[:n]
	}
	return &p.memo[r]
}

// Const implements interp.Tracer: a constant depends on nothing.
func (p *Profiler) Const(in *ir.Instr, fr *interp.Frame) {
	fs := p.fshadow(fr)
	r := p.eventRefFast(in, fs)
	if r == 0 {
		r = p.eventRefSlow(in, fs)
	}
	fs.nodes[in.Dst] = r
}

// Unary implements interp.Tracer: the result depends on operand A.
func (p *Profiler) Unary(in *ir.Instr, fr *interp.Frame) {
	fs := p.fshadow(fr)
	r := p.eventRefFast(in, fs)
	if r == 0 {
		r = p.eventRefSlow(in, fs)
	}
	p.link(r, 0, fs.nodes[in.A])
	fs.nodes[in.Dst] = r
}

// Binary implements interp.Tracer: the result depends on operands A and B.
func (p *Profiler) Binary(in *ir.Instr, fr *interp.Frame) {
	fs := p.fshadow(fr)
	r := p.eventRefFast(in, fs)
	if r == 0 {
		r = p.eventRefSlow(in, fs)
	}
	p.link(r, 0, fs.nodes[in.A])
	p.link(r, 1, fs.nodes[in.B])
	fs.nodes[in.Dst] = r
}

// alloc maps an allocation to its node, marks the node's effect, and tags
// the new object with it (environment P).
func (p *Profiler) alloc(in *ir.Instr, fs *frameShadow, o *interp.Object) depgraph.Ref {
	n := p.G.At(p.eventRef(in, fs))
	n.Eff = depgraph.EffAlloc
	if n.EffLoc.Alloc != n {
		n.EffLoc = depgraph.Loc{Alloc: n}
	}
	fs.nodes[in.Dst] = n.Ref()
	p.oshadow(o).tag = n.Ref()
	return n.Ref()
}

// New implements interp.Tracer.
func (p *Profiler) New(in *ir.Instr, fr *interp.Frame, o *interp.Object) {
	p.alloc(in, p.fshadow(fr), o)
}

// NewArray implements interp.Tracer: the allocation consumes the length.
func (p *Profiler) NewArray(in *ir.Instr, fr *interp.Frame, o *interp.Object) {
	fs := p.fshadow(fr)
	length := fs.nodes[in.A]
	p.link(p.alloc(in, fs, o), 0, length)
}

// fresh reports whether node r's heap effect on the object tagged base,
// storing the reference tagged val, differs from the one it registered
// last. Registering the same effect again would change nothing: each
// registration is idempotent, and the node fixes the field, so its location
// is a function of base. Callers skip it, and a repeated heap event costs
// this one compare.
func (p *Profiler) fresh(r, base, val depgraph.Ref) bool {
	if int(r) < len(p.memo) {
		m := &p.memo[r]
		return m.base != base+1 || m.val != val
	}
	return true
}

// effect marks node r's heap effect eff on the field of the object tagged
// base, records the effect in r's memo row, and returns the node and the
// location for the caller to register.
func (p *Profiler) effect(r, base, val depgraph.Ref, eff depgraph.EffectKind, field int) (*depgraph.Node, depgraph.Loc) {
	n, loc := p.G.At(r), depgraph.Loc{Alloc: p.G.At(base), Field: field}
	n.Eff = eff
	if n.EffLoc != loc {
		n.EffLoc = loc
	}
	if m := p.row(r); m != nil {
		m.base, m.val = base+1, val
	}
	return n, loc
}

// load records a heap read by node r of the field of the object tagged
// base.
func (p *Profiler) load(r, base depgraph.Ref, field int) {
	n, loc := p.effect(r, base, 0, depgraph.EffLoad, field)
	p.G.AddLocLoad(loc, n)
}

// store records a heap write by node r to the field of the object tagged
// base; a stored reference, tagged val, adds a points-to child of the
// location.
func (p *Profiler) store(r, base, val depgraph.Ref, field int) {
	n, loc := p.effect(r, base, val, depgraph.EffStore, field)
	g := p.G
	g.AddLocStore(loc, n)
	g.AddRefs(r, base)
	g.AddChild(loc, g.At(val))
}

// refTag returns the tag of the object v references, or 0 for none.
func (p *Profiler) refTag(v interp.Value) depgraph.Ref {
	if v.K == ir.KindRef && v.Ref != nil {
		return p.oshadow(v.Ref).tag
	}
	return 0
}

// LoadField implements interp.Tracer: the value depends on the field's last
// writer (and, in traditional slicing, on the base pointer).
func (p *Profiler) LoadField(in *ir.Instr, fr *interp.Frame, base *interp.Object) {
	fs := p.fshadow(fr)
	r := p.eventRef(in, fs)
	os := p.oshadow(base)
	if in.Field.Slot < len(os.slots) {
		p.link(r, 0, os.slots[in.Field.Slot])
	}
	if !p.thin {
		p.link(r, 1, fs.nodes[in.A]) // base-pointer use (traditional)
	}
	if p.fresh(r, os.tag, 0) {
		p.load(r, os.tag, in.Field.ID)
	}
	fs.nodes[in.Dst] = r
}

// StoreField implements interp.Tracer: the field's new writer depends on the
// stored value (and, in traditional slicing, on the base pointer).
func (p *Profiler) StoreField(in *ir.Instr, fr *interp.Frame, base *interp.Object, v interp.Value) {
	fs := p.fshadow(fr)
	r := p.eventRef(in, fs)
	p.link(r, 0, fs.nodes[in.B])
	if !p.thin {
		p.link(r, 1, fs.nodes[in.A])
	}
	os := p.oshadow(base)
	if in.Field.Slot < len(os.slots) {
		os.slots[in.Field.Slot] = r
	}
	if val := p.refTag(v); p.fresh(r, os.tag, val) {
		p.store(r, os.tag, val, in.Field.ID)
	}
}

// LoadStatic implements interp.Tracer.
func (p *Profiler) LoadStatic(in *ir.Instr, fr *interp.Frame) {
	fs := p.fshadow(fr)
	r := p.eventRef(in, fs)
	p.link(r, 0, p.statics[in.Static.Slot])
	if p.fresh(r, 0, 0) {
		p.load(r, 0, in.Static.Slot)
	}
	fs.nodes[in.Dst] = r
}

// StoreStatic implements interp.Tracer.
func (p *Profiler) StoreStatic(in *ir.Instr, fr *interp.Frame, v interp.Value) {
	fs := p.fshadow(fr)
	r := p.eventRef(in, fs)
	p.link(r, 0, fs.nodes[in.A])
	p.statics[in.Static.Slot] = r
	if val := p.refTag(v); p.fresh(r, 0, val) {
		p.store(r, 0, val, in.Static.Slot)
	}
}

// LoadElem implements interp.Tracer: the value depends on the element's last
// writer and on the index (and, in traditional slicing, on the base
// pointer).
func (p *Profiler) LoadElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64) {
	fs := p.fshadow(fr)
	r := p.eventRef(in, fs)
	os := p.oshadow(arr)
	if int(idx) < len(os.slots) {
		p.link(r, 0, os.slots[idx])
	}
	p.link(r, 1, fs.nodes[in.B]) // the index is still considered used
	if !p.thin {
		p.link(r, 2, fs.nodes[in.A])
	}
	if p.fresh(r, os.tag, 0) {
		p.load(r, os.tag, depgraph.ElemField)
	}
	fs.nodes[in.Dst] = r
}

// StoreElem implements interp.Tracer: the element's new writer depends on
// the stored value and the index (and, in traditional slicing, on the base
// pointer).
func (p *Profiler) StoreElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64, v interp.Value) {
	fs := p.fshadow(fr)
	r := p.eventRef(in, fs)
	p.link(r, 0, fs.nodes[in.C2])
	p.link(r, 1, fs.nodes[in.B])
	if !p.thin {
		p.link(r, 2, fs.nodes[in.A])
	}
	os := p.oshadow(arr)
	if int(idx) < len(os.slots) {
		os.slots[idx] = r
	}
	if val := p.refTag(v); p.fresh(r, os.tag, val) {
		p.store(r, os.tag, val, depgraph.ElemField)
	}
}

// ArrayLen implements interp.Tracer. The length is metadata fixed at
// allocation; the read is modelled as a heap load whose last writer is the
// allocation node.
func (p *Profiler) ArrayLen(in *ir.Instr, fr *interp.Frame, arr *interp.Object) {
	fs := p.fshadow(fr)
	r := p.eventRef(in, fs)
	os := p.oshadow(arr)
	p.link(r, 0, os.tag)
	if p.fresh(r, os.tag, 0) {
		p.effect(r, os.tag, 0, depgraph.EffLoad, depgraph.ElemField)
	}
	fs.nodes[in.Dst] = r
}

// Branch implements interp.Tracer: the predicate consumes operands A and B.
func (p *Profiler) Branch(in *ir.Instr, fr *interp.Frame, _ bool) {
	fs := p.fshadow(fr)
	r := p.consumerRefFast(in)
	if r == 0 {
		r = p.consumerRefSlow(in)
	}
	p.link(r, 0, fs.nodes[in.A])
	p.link(r, 1, fs.nodes[in.B])
	if p.control {
		fs.lastPred = r
	}
}

// Native implements interp.Tracer: the native consumes its arguments and
// produces its destination.
func (p *Profiler) Native(in *ir.Instr, fr *interp.Frame) {
	fs := p.fshadow(fr)
	r := p.consumerRefFast(in)
	if r == 0 {
		r = p.consumerRefSlow(in)
	}
	for i, a := range in.Args {
		if i < controlSlot {
			p.link(r, i, fs.nodes[a])
		} else {
			p.G.AddDepRefs(r, fs.nodes[a])
		}
	}
	if in.Dst >= 0 {
		fs.nodes[in.Dst] = r
	}
}

// BeforeCall implements interp.Tracer: it pushes the actuals' tracking data
// and the callee's object context (the caller chain extended with the
// receiver's allocation site; unchanged for static callees).
func (p *Profiler) BeforeCall(in *ir.Instr, caller *interp.Frame, callee *ir.Method, recv *interp.Object) {
	fs := p.fshadow(caller)
	if cap(p.pendingArgs) < len(in.Args) {
		p.pendingArgs = make([]depgraph.Ref, len(in.Args))
	}
	p.pendingArgs = p.pendingArgs[:len(in.Args)]
	for i, a := range in.Args {
		p.pendingArgs[i] = fs.nodes[a]
	}
	if recv != nil {
		ctx := contextenc.Extend(fs.ctx, recv.Site)
		p.pendingCtx = ctx
		p.pendingSlot = p.slots.Slot(ctx)
	} else {
		p.pendingCtx = fs.ctx
		p.pendingSlot = fs.slot
	}
	p.havePending = true
}

// newFrameShadow returns a shadow with room for n locals, reusing a pooled
// record when one fits. The first keep slots are left dirty — the caller
// overwrites them with the staged argument shadows — and only the rest is
// cleared.
func (p *Profiler) newFrameShadow(n, keep int) *frameShadow {
	if len(p.fsPool) > 0 {
		fs := p.fsPool[len(p.fsPool)-1]
		p.fsPool = p.fsPool[:len(p.fsPool)-1]
		if cap(fs.nodes) < n {
			fs.nodes = make([]depgraph.Ref, n)
		} else {
			fs.nodes = fs.nodes[:n]
			if keep > n {
				keep = n
			}
			clear(fs.nodes[keep:])
		}
		fs.ctx = contextenc.EmptyContext
		fs.slot = 0
		fs.lastPred = 0
		return fs
	}
	return &frameShadow{nodes: make([]depgraph.Ref, n)}
}

// EnterMethod implements interp.Tracer: formals receive the actuals'
// tracking data and the frame adopts the pushed context.
func (p *Profiler) EnterMethod(fr *interp.Frame, recv *interp.Object) {
	keep := 0
	if p.havePending {
		keep = len(p.pendingArgs)
	}
	fs := p.newFrameShadow(fr.Method.NumLocals, keep)
	if p.havePending {
		copy(fs.nodes, p.pendingArgs)
		fs.ctx = p.pendingCtx
		fs.slot = p.pendingSlot
		p.havePending = false
	} else if recv != nil {
		// Entry via CallMethod with a receiver: root the chain there.
		fs.ctx = contextenc.Extend(contextenc.EmptyContext, recv.Site)
		fs.slot = p.slots.Slot(fs.ctx)
	}
	fr.Shadow = fs
	p.curFrame, p.cur = fr, fs
	// Call boundaries are where TouchFast's deferred snapshot invalidation
	// is flushed (the batched-increment flush point).
	p.G.Invalidate()
}

// BeforeReturn implements interp.Tracer: the return value's tracking data is
// pushed for the caller to pop.
func (p *Profiler) BeforeReturn(in *ir.Instr, fr *interp.Frame) {
	if in.HasA {
		p.pendingRet = p.fshadow(fr).nodes[in.A]
	} else {
		p.pendingRet = 0
	}
	// The frame pops right after this hook; reclaim its shadow. fr.Shadow
	// stays attached because wrapping tracers (e.g. MethodCostTracker) peek
	// at it synchronously after delegating here — the record is only reused
	// at the next EnterMethod, by which point the pop has fully completed.
	if fs, ok := fr.Shadow.(*frameShadow); ok {
		p.fsPool = append(p.fsPool, fs)
	}
	if fr == p.curFrame {
		p.curFrame, p.cur = nil, nil
	}
	p.G.Invalidate()
}

// StagedReturn returns the node staged by the most recent BeforeReturn — the
// return value's tracking data awaiting AfterCall. Wrapping clients read it
// here instead of re-deriving the popped frame's shadow.
func (p *Profiler) StagedReturn() *depgraph.Node { return p.G.At(p.pendingRet) }

// AfterCall implements interp.Tracer: a call site with a destination acts as
// an assignment from the returned value, creating a node in the caller's
// context.
func (p *Profiler) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	ret := p.pendingRet
	p.pendingRet = 0
	if !hasValue || in == nil || in.Dst < 0 {
		return
	}
	fs := p.fshadow(caller)
	r := p.eventRefFast(in, fs)
	if r == 0 {
		r = p.eventRefSlow(in, fs)
	}
	p.link(r, 0, ret)
	fs.nodes[in.Dst] = r
}

var _ interp.Detacher = (*Profiler)(nil)

// NewFromGraph wraps a reloaded graph (depgraph.Decode) in a Profiler so
// offline analyses can use the same access paths as live ones. The returned
// profiler must not be attached to a machine.
func NewFromGraph(prog *ir.Program, g *depgraph.Graph) *Profiler {
	return &Profiler{
		G:       g,
		Prog:    prog,
		slots:   contextenc.NewSlots(16),
		thin:    true,
		statics: make([]depgraph.Ref, len(prog.Statics)),
		cr:      contextenc.NewConflictTracker(contextenc.NewSlots(16), prog.NumInstrs()),
	}
}
