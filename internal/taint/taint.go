// Package taint implements the naive cumulative cost tracking that Figure 1
// of the paper uses as a negative baseline: each storage location carries a
// scalar "cost so far", and an instruction's destination cost is the sum of
// its operand costs plus one.
//
// This double-counts shared sub-computations (the paper's t_b = 8 for a
// five-instruction program) and can overflow 64-bit counters on real
// programs; the tests and benchmarks contrast it with slicing-based cost,
// which counts each contributing instruction once.
package taint

import (
	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// Tracker is an interp.Tracer that performs taint-like cumulative cost
// tracking. Costs saturate at MaxCost instead of overflowing.
type Tracker struct {
	interp.NopTracer
	// Overflowed reports whether any cost saturated.
	Overflowed bool

	statics []uint64
	pending []uint64
	haveP   bool
	pendRet uint64
}

// MaxCost is the saturation bound.
const MaxCost = ^uint64(0) >> 1

// New returns a Tracker for prog.
func New(prog *ir.Program) *Tracker {
	return &Tracker{statics: make([]uint64, len(prog.Statics))}
}

type frameCosts struct{ c []uint64 }
type objCosts struct{ c []uint64 }

func (t *Tracker) fcosts(fr *interp.Frame) *frameCosts {
	if fc, ok := fr.Shadow.(*frameCosts); ok {
		return fc
	}
	fc := &frameCosts{c: make([]uint64, len(fr.Locals))}
	fr.Shadow = fc
	return fc
}

func (t *Tracker) ocosts(o *interp.Object) *objCosts {
	if oc, ok := o.Shadow.(*objCosts); ok {
		return oc
	}
	n := len(o.Fields)
	if o.IsArray() {
		n = len(o.Elems)
	}
	oc := &objCosts{c: make([]uint64, n)}
	o.Shadow = oc
	return oc
}

func (t *Tracker) add(a, b uint64) uint64 {
	s := a + b
	if s < a || s > MaxCost {
		t.Overflowed = true
		return MaxCost
	}
	return s
}

// CostOf returns the tracked cumulative cost of local slot s in fr.
func (t *Tracker) CostOf(fr *interp.Frame, s int) uint64 { return t.fcosts(fr).c[s] }

// set makes c the cost of in's destination.
func (t *Tracker) set(in *ir.Instr, fr *interp.Frame, c uint64) { t.fcosts(fr).c[in.Dst] = c }

// local returns the cost of local slot s of fr.
func (t *Tracker) local(fr *interp.Frame, s int) uint64 { return t.fcosts(fr).c[s] }

// The instruction hooks: a destination costs its operands' costs plus
// one; a computed length or a fresh object costs one.
func (t *Tracker) Const(in *ir.Instr, fr *interp.Frame) { t.set(in, fr, 1) }
func (t *Tracker) Unary(in *ir.Instr, fr *interp.Frame) {
	t.set(in, fr, t.add(t.local(fr, in.A), 1))
}
func (t *Tracker) Binary(in *ir.Instr, fr *interp.Frame) {
	t.set(in, fr, t.add(t.add(t.local(fr, in.A), t.local(fr, in.B)), 1))
}
func (t *Tracker) New(in *ir.Instr, fr *interp.Frame, _ *interp.Object) { t.set(in, fr, 1) }
func (t *Tracker) NewArray(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	t.set(in, fr, t.add(t.local(fr, in.A), 1))
}
func (t *Tracker) LoadField(in *ir.Instr, fr *interp.Frame, base *interp.Object) {
	t.set(in, fr, t.add(t.ocosts(base).c[in.Field.Slot], 1))
}
func (t *Tracker) StoreField(in *ir.Instr, fr *interp.Frame, base *interp.Object, _ interp.Value) {
	t.ocosts(base).c[in.Field.Slot] = t.add(t.local(fr, in.B), 1)
}
func (t *Tracker) LoadStatic(in *ir.Instr, fr *interp.Frame) {
	t.set(in, fr, t.add(t.statics[in.Static.Slot], 1))
}
func (t *Tracker) StoreStatic(in *ir.Instr, fr *interp.Frame, _ interp.Value) {
	t.statics[in.Static.Slot] = t.add(t.local(fr, in.A), 1)
}
func (t *Tracker) LoadElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64) {
	t.set(in, fr, t.add(t.add(t.ocosts(arr).c[idx], t.local(fr, in.B)), 1))
}
func (t *Tracker) StoreElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64, _ interp.Value) {
	t.ocosts(arr).c[idx] = t.add(t.add(t.local(fr, in.C2), t.local(fr, in.B)), 1)
}
func (t *Tracker) ArrayLen(in *ir.Instr, fr *interp.Frame, _ *interp.Object) { t.set(in, fr, 1) }
func (t *Tracker) Native(in *ir.Instr, fr *interp.Frame) {
	var sum uint64 = 1
	for _, a := range in.Args {
		sum = t.add(sum, t.local(fr, a))
	}
	if in.Dst >= 0 {
		t.set(in, fr, sum)
	}
}

// BeforeCall implements interp.Tracer.
func (t *Tracker) BeforeCall(in *ir.Instr, caller *interp.Frame, callee *ir.Method, recv *interp.Object) {
	fc := t.fcosts(caller)
	t.pending = t.pending[:0]
	for _, a := range in.Args {
		t.pending = append(t.pending, fc.c[a])
	}
	t.haveP = true
}

// EnterMethod implements interp.Tracer.
func (t *Tracker) EnterMethod(fr *interp.Frame, recv *interp.Object) {
	fc := &frameCosts{c: make([]uint64, fr.Method.NumLocals)}
	if t.haveP {
		copy(fc.c, t.pending)
		t.haveP = false
	}
	fr.Shadow = fc
}

// BeforeReturn implements interp.Tracer.
func (t *Tracker) BeforeReturn(in *ir.Instr, fr *interp.Frame) {
	if in.HasA {
		t.pendRet = t.fcosts(fr).c[in.A]
	} else {
		t.pendRet = 0
	}
}

// AfterCall implements interp.Tracer.
func (t *Tracker) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	if hasValue && in != nil && in.Dst >= 0 {
		t.fcosts(caller).c[in.Dst] = t.add(t.pendRet, 1)
	}
	t.pendRet = 0
}

var _ interp.Tracer = (*Tracker)(nil)
