package escape

import (
	"sort"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// Observer is an interp.Tracer recording the dynamic ground truth of the
// escape lattice: per allocation site, whether any object allocated there
// was dereferenced after its allocating frame popped. A dereference is a
// field or element access (load, store, or array-length read) on the object
// or a virtual dispatch on it as the receiver.
//
// The Observer owns Frame.Shadow (a monotonically increasing frame ID) and
// Object.Shadow (the allocating frame's ID), so it cannot be combined with
// another Shadow-owning tracer on the same machine.
type Observer struct {
	interp.NopTracer
	next    int64
	live    map[int64]bool
	escaped map[int]bool
}

// NewObserver returns an Observer ready to install as a machine's Tracer.
func NewObserver() *Observer {
	return &Observer{live: make(map[int64]bool), escaped: make(map[int]bool)}
}

// The instruction hooks: an allocation tags the new object with the
// current frame ID; a heap access checks its base object's allocating
// frame.
func (o *Observer) New(_ *ir.Instr, fr *interp.Frame, obj *interp.Object)       { o.tag(fr, obj) }
func (o *Observer) NewArray(_ *ir.Instr, fr *interp.Frame, arr *interp.Object)  { o.tag(fr, arr) }
func (o *Observer) LoadField(_ *ir.Instr, _ *interp.Frame, base *interp.Object) { o.deref(base) }
func (o *Observer) StoreField(_ *ir.Instr, _ *interp.Frame, base *interp.Object, _ interp.Value) {
	o.deref(base)
}
func (o *Observer) LoadElem(_ *ir.Instr, _ *interp.Frame, arr *interp.Object, _ int64) { o.deref(arr) }
func (o *Observer) StoreElem(_ *ir.Instr, _ *interp.Frame, arr *interp.Object, _ int64, _ interp.Value) {
	o.deref(arr)
}
func (o *Observer) ArrayLen(_ *ir.Instr, _ *interp.Frame, arr *interp.Object) { o.deref(arr) }

// BeforeCall implements interp.Tracer: virtual dispatch dereferences the
// receiver.
func (o *Observer) BeforeCall(_ *ir.Instr, _ *interp.Frame, _ *ir.Method, recv *interp.Object) {
	if recv != nil {
		o.deref(recv)
	}
}

// EnterMethod implements interp.Tracer.
func (o *Observer) EnterMethod(fr *interp.Frame, _ *interp.Object) {
	o.next++
	fr.Shadow = o.next
	o.live[o.next] = true
}

// BeforeReturn implements interp.Tracer.
func (o *Observer) BeforeReturn(_ *ir.Instr, fr *interp.Frame) {
	if id, ok := fr.Shadow.(int64); ok {
		delete(o.live, id)
	}
}

// tag records obj as allocated in fr.
func (o *Observer) tag(fr *interp.Frame, obj *interp.Object) {
	if id, ok := fr.Shadow.(int64); ok {
		obj.Shadow = id
	}
}

func (o *Observer) deref(obj *interp.Object) {
	if obj == nil {
		return
	}
	id, ok := obj.Shadow.(int64)
	if !ok {
		return
	}
	if !o.live[id] {
		o.escaped[obj.Site] = true
	}
}

// EscapedSites returns the allocation-site indices observed escaping their
// allocating frame, ascending.
func (o *Observer) EscapedSites() []int {
	out := make([]int, 0, len(o.escaped))
	for s := range o.escaped {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

var _ interp.Tracer = (*Observer)(nil)
