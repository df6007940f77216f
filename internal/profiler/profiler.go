// Package profiler builds the cost-benefit dependence graph Gcost online,
// implementing the instrumentation semantics of Figure 4 of the paper as an
// interp.Tracer.
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
	// TrackCR enables exact context-conflict-ratio bookkeeping (costs
	// memory proportional to distinct (instruction, context) pairs).
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
	// Prune, when non-nil and indexed by ir.Instr.ID, drops marked events on
	// arrival (see staticanalysis.PruneSet). Redundant when the Machine
	// already carries the set — this guard serves tracer stacks the machine
	// gate cannot reach. Must be nil when Traditional is set: the proof that
	// pruned instructions are invisible holds only under thin slicing.
	Prune []bool
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
	prune    []bool

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

	// enabled gates graph construction for phase-restricted tracking;
	// context bookkeeping continues while disabled.
	enabled bool

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
	// and fast gates the inlined intern probe: set only when no per-event
	// extras (conflict tracking, unabstracted domain, control deps) are
	// configured. tFreq is re-fetched after every intern miss (the table
	// grows).
	tIdx  []int32
	tFreq []int64
	tW    int
	fast  bool

	// osSlab and slotSlab back objShadow allocation: records and shadow-slot
	// arrays are carved off chunk-at-a-time so the per-object miss path in
	// oshadow costs two slice headers instead of two heap allocations.
	osSlab   []objShadow
	slotSlab []depgraph.Ref

	// instCount counts instances per instruction in Unabstracted mode.
	instCount []int
}

// New returns a Profiler over prog.
func New(prog *ir.Program, opts Options) *Profiler {
	s := opts.Slots
	if s == 0 {
		s = 16
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
		enabled: true,
	}
	if !opts.Traditional {
		p.prune = opts.Prune
	}
	if opts.TrackCR {
		p.cr = NewCRTracker(prog, s)
	}
	if p.unabs {
		p.instCount = make([]int, prog.NumInstrs())
		p.unabsCap = opts.UnabstractedCap
		if p.unabsCap == 0 {
			p.unabsCap = 1 << 20
		}
	}
	if !p.unabs && p.cr == nil && !p.control {
		t := p.G.DenseTables()
		p.tIdx, p.tFreq, p.tW = t.Idx, t.Freq, t.Width
		p.fast = true
	}
	return p
}

// NewCRTracker returns the conflict tracker used when Options.TrackCR is
// set; exposed for tests.
func NewCRTracker(prog *ir.Program, s int) *contextenc.ConflictTracker {
	return contextenc.NewConflictTracker(contextenc.NewSlots(s), prog.NumInstrs())
}

// SetEnabled toggles graph construction; used for phase-restricted tracking
// ("track only the steady-state portion of a server's run").
func (p *Profiler) SetEnabled(on bool) { p.enabled = on }

// Enabled reports whether graph construction is active.
func (p *Profiler) Enabled() bool { return p.enabled }

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
	if p.control && fs.lastPred != 0 {
		p.G.AddDepRef(n, fs.lastPred)
	}
	return n
}

// consumerNode maps a predicate or native instruction to its context-free
// node.
func (p *Profiler) consumerNode(in *ir.Instr) *depgraph.Node {
	return p.G.TouchFast(in, depgraph.NoContext)
}

// eventRefFast is the inlined intern hit path: probe the cached dense index
// for (in, fs.slot) and bump the frequency table. Returns NilRef on a miss
// or when the fast path is off; callers then take eventRefSlow.
func (p *Profiler) eventRefFast(in *ir.Instr, fs *frameShadow) depgraph.Ref {
	if !p.fast {
		return 0
	}
	if v := p.tIdx[in.ID*p.tW+fs.slot+1]; v != 0 {
		p.tFreq[v-1]++
		return depgraph.Ref(v)
	}
	return 0
}

// eventRefSlow interns on a dense miss (re-fetching the grown frequency
// table) or runs the general node mapping when the fast path is off.
func (p *Profiler) eventRefSlow(in *ir.Instr, fs *frameShadow) depgraph.Ref {
	if p.fast {
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

// eventNode maps the event to its node for the cases that need the record
// itself (allocation tagging, heap-effect annotation).
func (p *Profiler) eventNode(in *ir.Instr, fs *frameShadow) *depgraph.Node {
	if r := p.eventRefFast(in, fs); r != 0 {
		return p.G.At(r)
	}
	return p.G.At(p.eventRefSlow(in, fs))
}

// Exec implements interp.Tracer.
func (p *Profiler) Exec(ev *interp.Event) {
	if !p.enabled {
		return
	}
	in := ev.In
	if p.prune != nil && in.ID < len(p.prune) && p.prune[in.ID] {
		return
	}
	fs := p.fshadow(ev.Frame)
	g := p.G

	switch in.Op {
	case ir.OpConst:
		r := p.eventRefFast(in, fs)
		if r == 0 {
			r = p.eventRefSlow(in, fs)
		}
		fs.nodes[in.Dst] = r

	case ir.OpMove:
		r := p.eventRefFast(in, fs)
		if r == 0 {
			r = p.eventRefSlow(in, fs)
		}
		g.AddDepRefs(r, fs.nodes[in.A])
		fs.nodes[in.Dst] = r

	case ir.OpBin:
		r := p.eventRefFast(in, fs)
		if r == 0 {
			r = p.eventRefSlow(in, fs)
		}
		g.AddDepRefs(r, fs.nodes[in.A])
		g.AddDepRefs(r, fs.nodes[in.B])
		fs.nodes[in.Dst] = r

	case ir.OpNeg, ir.OpNot, ir.OpInstanceOf:
		r := p.eventRefFast(in, fs)
		if r == 0 {
			r = p.eventRefSlow(in, fs)
		}
		g.AddDepRefs(r, fs.nodes[in.A])
		fs.nodes[in.Dst] = r

	case ir.OpNew:
		n := p.eventNode(in, fs)
		n.Eff = depgraph.EffAlloc
		if n.EffLoc.Alloc != n {
			n.EffLoc = depgraph.Loc{Alloc: n}
		}
		fs.nodes[in.Dst] = n.Ref()
		p.oshadow(ev.New).tag = n.Ref()

	case ir.OpNewArray:
		n := p.eventNode(in, fs)
		n.Eff = depgraph.EffAlloc
		if n.EffLoc.Alloc != n {
			n.EffLoc = depgraph.Loc{Alloc: n}
		}
		g.AddDepRef(n, fs.nodes[in.A]) // the length value is consumed
		fs.nodes[in.Dst] = n.Ref()
		p.oshadow(ev.New).tag = n.Ref()

	case ir.OpLoadField:
		n := p.eventNode(in, fs)
		os := p.oshadow(ev.Base)
		if in.Field.Slot < len(os.slots) {
			g.AddDepRef(n, os.slots[in.Field.Slot])
		}
		if !p.thin {
			g.AddDepRef(n, fs.nodes[in.A]) // base-pointer use (traditional)
		}
		loc := depgraph.Loc{Alloc: g.At(os.tag), Field: in.Field.ID}
		n.Eff = depgraph.EffLoad
		if n.EffLoc != loc {
			n.EffLoc = loc
		}
		g.AddLocLoad(loc, n)
		fs.nodes[in.Dst] = n.Ref()

	case ir.OpStoreField:
		n := p.eventNode(in, fs)
		g.AddDepRef(n, fs.nodes[in.B])
		if !p.thin {
			g.AddDepRef(n, fs.nodes[in.A])
		}
		os := p.oshadow(ev.Base)
		if in.Field.Slot < len(os.slots) {
			os.slots[in.Field.Slot] = n.Ref()
		}
		loc := depgraph.Loc{Alloc: g.At(os.tag), Field: in.Field.ID}
		n.Eff = depgraph.EffStore
		if n.EffLoc != loc {
			n.EffLoc = loc
		}
		g.AddLocStore(loc, n)
		g.AddRefs(n.Ref(), os.tag)
		if ev.Val.K == ir.KindRef && ev.Val.Ref != nil {
			g.AddChild(loc, g.At(p.oshadow(ev.Val.Ref).tag))
		}

	case ir.OpLoadStatic:
		n := p.eventNode(in, fs)
		g.AddDepRef(n, p.statics[in.Static.Slot])
		loc := depgraph.Loc{Alloc: nil, Field: in.Static.Slot}
		n.Eff = depgraph.EffLoad
		if n.EffLoc != loc {
			n.EffLoc = loc
		}
		g.AddLocLoad(loc, n)
		fs.nodes[in.Dst] = n.Ref()

	case ir.OpStoreStatic:
		n := p.eventNode(in, fs)
		g.AddDepRef(n, fs.nodes[in.A])
		p.statics[in.Static.Slot] = n.Ref()
		loc := depgraph.Loc{Alloc: nil, Field: in.Static.Slot}
		n.Eff = depgraph.EffStore
		if n.EffLoc != loc {
			n.EffLoc = loc
		}
		g.AddLocStore(loc, n)
		if ev.Val.K == ir.KindRef && ev.Val.Ref != nil {
			g.AddChild(loc, g.At(p.oshadow(ev.Val.Ref).tag))
		}

	case ir.OpALoad:
		n := p.eventNode(in, fs)
		os := p.oshadow(ev.Base)
		if int(ev.Index) < len(os.slots) {
			g.AddDepRef(n, os.slots[ev.Index])
		}
		g.AddDepRef(n, fs.nodes[in.B]) // the index is still considered used
		if !p.thin {
			g.AddDepRef(n, fs.nodes[in.A])
		}
		loc := depgraph.Loc{Alloc: g.At(os.tag), Field: depgraph.ElemField}
		n.Eff = depgraph.EffLoad
		if n.EffLoc != loc {
			n.EffLoc = loc
		}
		g.AddLocLoad(loc, n)
		fs.nodes[in.Dst] = n.Ref()

	case ir.OpAStore:
		n := p.eventNode(in, fs)
		g.AddDepRef(n, fs.nodes[in.C2])
		g.AddDepRef(n, fs.nodes[in.B])
		if !p.thin {
			g.AddDepRef(n, fs.nodes[in.A])
		}
		os := p.oshadow(ev.Base)
		if int(ev.Index) < len(os.slots) {
			os.slots[ev.Index] = n.Ref()
		}
		loc := depgraph.Loc{Alloc: g.At(os.tag), Field: depgraph.ElemField}
		n.Eff = depgraph.EffStore
		if n.EffLoc != loc {
			n.EffLoc = loc
		}
		g.AddLocStore(loc, n)
		g.AddRefs(n.Ref(), os.tag)
		if ev.Val.K == ir.KindRef && ev.Val.Ref != nil {
			g.AddChild(loc, g.At(p.oshadow(ev.Val.Ref).tag))
		}

	case ir.OpArrayLen:
		// The length is metadata fixed at allocation; model the read as a
		// heap load whose last writer is the allocation node.
		n := p.eventNode(in, fs)
		os := p.oshadow(ev.Base)
		g.AddDepRefs(n.Ref(), os.tag)
		loc := depgraph.Loc{Alloc: g.At(os.tag), Field: depgraph.ElemField}
		n.Eff = depgraph.EffLoad
		if n.EffLoc != loc {
			n.EffLoc = loc
		}
		fs.nodes[in.Dst] = n.Ref()

	case ir.OpIf:
		r := p.consumerRefFast(in)
		if r == 0 {
			r = p.consumerRefSlow(in)
		}
		g.AddDepRefs(r, fs.nodes[in.A])
		g.AddDepRefs(r, fs.nodes[in.B])
		if p.control {
			fs.lastPred = r
		}

	case ir.OpNative:
		r := p.consumerRefFast(in)
		if r == 0 {
			r = p.consumerRefSlow(in)
		}
		for _, a := range in.Args {
			g.AddDepRefs(r, fs.nodes[a])
		}
		if in.Dst >= 0 {
			fs.nodes[in.Dst] = r
		}
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
	if !p.enabled {
		return
	}
	n := p.node(in, fs)
	if p.fast {
		// node() bypasses eventRefSlow, so an intern miss here can grow the
		// dense frequency table without the usual re-fetch; a stale tFreq
		// would silently drop every fast-path increment until the next slow
		// path runs.
		p.tFreq = p.G.DenseTables().Freq
	}
	p.G.AddDepRef(n, ret)
	fs.nodes[in.Dst] = n.Ref()
}

var _ interp.Tracer = (*Profiler)(nil)

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
		cr:      NewCRTracker(prog, 16),
	}
}
