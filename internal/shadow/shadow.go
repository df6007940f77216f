// Package shadow is abstract dynamic thin slicing (§2.1) written once. A
// client supplies its domain D as a cell type C and its abstraction
// function f_a as a Rule; the Tracer keeps a cell for every local, field,
// array element and static (the shadow heap), passes cells across calls as
// the paper's tracking stack T does, and asks the rule for the cell of
// every value an instruction produces or stores.
//
// Null propagation and copy profiling (package clients) and the Figure 1
// taint baseline (package taint) are rules over this one tracer.
package shadow

import (
	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// Rule is a client's abstraction function f_a over its domain C.
type Rule[C any] interface {
	// Cell returns the cell of the value v that in produced or stored. o is
	// the object in allocated or accessed, or nil. ops holds the input
	// cells in a fixed order:
	//   - operand A, for a unary op, new[]'s length and an array-length read;
	//   - A, then B, for a binary op;
	//   - the cell read, then the index, for a load (a field or static
	//     load has no index);
	//   - the stored local, then the index, for a store;
	//   - the arguments, for a native with a destination;
	//   - the returned cell, for a call with a destination;
	//   - none, for a constant and new.
	// ops is valid only during the call.
	Cell(in *ir.Instr, o *interp.Object, v interp.Value, ops []C) C
}

// Tracer is an interp.Tracer that keeps a cell of C for every location of
// a run and defines each one through its Rule. A fresh location holds C's
// zero value. The Tracer owns Frame.Shadow and Object.Shadow.
type Tracer[C any] struct {
	interp.NopTracer
	rule    Rule[C]
	statics []C
	args    []C // the actuals' cells, pushed by BeforeCall for EnterMethod
	ret     C   // the returned cell, pushed by BeforeReturn for AfterCall
	ops     []C // the input cells handed to the rule
}

// cells is the shadow of one frame's locals or one object's fields or
// elements.
type cells[C any] struct{ c []C }

// New returns a tracer for runs of prog under rule.
func New[C any](prog *ir.Program, rule Rule[C]) *Tracer[C] {
	return &Tracer[C]{rule: rule, statics: make([]C, len(prog.Statics)), ops: make([]C, 0, 2)}
}

// Local returns the cell of local slot s in fr.
func (t *Tracer[C]) Local(fr *interp.Frame, s int) C { return t.frame(fr)[s] }

// frame returns fr's cells, creating them if needed.
func (t *Tracer[C]) frame(fr *interp.Frame) []C {
	if c, ok := fr.Shadow.(*cells[C]); ok {
		return c.c
	}
	c := &cells[C]{make([]C, len(fr.Locals))}
	fr.Shadow = c
	return c.c
}

// object returns o's cells, creating them if needed.
func (t *Tracer[C]) object(o *interp.Object) []C {
	if c, ok := o.Shadow.(*cells[C]); ok {
		return c.c
	}
	n := len(o.Fields)
	if o.IsArray() {
		n = len(o.Elems)
	}
	c := &cells[C]{make([]C, n)}
	o.Shadow = c
	return c.c
}

// one and two fill the rule's input cells.
func (t *Tracer[C]) one(a C) []C    { return append(t.ops[:0], a) }
func (t *Tracer[C]) two(a, b C) []C { return append(t.ops[:0], a, b) }

// def makes the rule's cell for the value in wrote to its destination the
// destination's cell.
func (t *Tracer[C]) def(in *ir.Instr, fr *interp.Frame, loc []C, o *interp.Object, ops []C) {
	loc[in.Dst] = t.rule.Cell(in, o, fr.Locals[in.Dst], ops)
}

// The instruction hooks: each value an instruction produces or stores gets
// the rule's cell.

func (t *Tracer[C]) Const(in *ir.Instr, fr *interp.Frame) {
	t.def(in, fr, t.frame(fr), nil, nil)
}

func (t *Tracer[C]) Unary(in *ir.Instr, fr *interp.Frame) {
	loc := t.frame(fr)
	t.def(in, fr, loc, nil, t.one(loc[in.A]))
}

func (t *Tracer[C]) Binary(in *ir.Instr, fr *interp.Frame) {
	loc := t.frame(fr)
	t.def(in, fr, loc, nil, t.two(loc[in.A], loc[in.B]))
}

func (t *Tracer[C]) New(in *ir.Instr, fr *interp.Frame, o *interp.Object) {
	t.def(in, fr, t.frame(fr), o, nil)
}

func (t *Tracer[C]) NewArray(in *ir.Instr, fr *interp.Frame, o *interp.Object) {
	loc := t.frame(fr)
	t.def(in, fr, loc, o, t.one(loc[in.A]))
}

func (t *Tracer[C]) LoadField(in *ir.Instr, fr *interp.Frame, base *interp.Object) {
	t.def(in, fr, t.frame(fr), base, t.one(t.object(base)[in.Field().Slot]))
}

func (t *Tracer[C]) StoreField(in *ir.Instr, fr *interp.Frame, base *interp.Object, v interp.Value) {
	t.object(base)[in.Field().Slot] = t.rule.Cell(in, base, v, t.one(t.frame(fr)[in.B]))
}

func (t *Tracer[C]) LoadStatic(in *ir.Instr, fr *interp.Frame) {
	t.def(in, fr, t.frame(fr), nil, t.one(t.statics[in.Static().Slot]))
}

func (t *Tracer[C]) StoreStatic(in *ir.Instr, fr *interp.Frame, v interp.Value) {
	t.statics[in.Static().Slot] = t.rule.Cell(in, nil, v, t.one(t.frame(fr)[in.A]))
}

func (t *Tracer[C]) LoadElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64) {
	loc := t.frame(fr)
	t.def(in, fr, loc, arr, t.two(t.object(arr)[idx], loc[in.B]))
}

func (t *Tracer[C]) StoreElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64, v interp.Value) {
	loc := t.frame(fr)
	t.object(arr)[idx] = t.rule.Cell(in, arr, v, t.two(loc[in.C2], loc[in.B]))
}

func (t *Tracer[C]) ArrayLen(in *ir.Instr, fr *interp.Frame, arr *interp.Object) {
	loc := t.frame(fr)
	t.def(in, fr, loc, arr, t.one(loc[in.A]))
}

func (t *Tracer[C]) Native(in *ir.Instr, fr *interp.Frame) {
	if in.Dst < 0 {
		return
	}
	loc := t.frame(fr)
	ops := t.ops[:0]
	for _, a := range in.Args() {
		ops = append(ops, loc[a])
	}
	t.ops = ops
	t.def(in, fr, loc, nil, ops)
}

// The call hooks are the tracking stack: the actuals' cells become the
// formals' cells, and the returned cell is the rule's input for the call's
// destination.

func (t *Tracer[C]) BeforeCall(in *ir.Instr, caller *interp.Frame, _ *ir.Method, _ *interp.Object) {
	loc := t.frame(caller)
	t.args = t.args[:0]
	for _, a := range in.Args() {
		t.args = append(t.args, loc[a])
	}
}

func (t *Tracer[C]) EnterMethod(fr *interp.Frame, _ *interp.Object) {
	c := &cells[C]{make([]C, fr.Method.NumLocals)}
	copy(c.c, t.args)
	t.args = t.args[:0]
	fr.Shadow = c
}

func (t *Tracer[C]) BeforeReturn(in *ir.Instr, fr *interp.Frame) {
	if in.HasA {
		t.ret = t.frame(fr)[in.A]
	}
}

func (t *Tracer[C]) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	if hasValue && in != nil && in.Dst >= 0 {
		t.def(in, caller, t.frame(caller), nil, t.one(t.ret))
	}
}

var _ interp.Tracer = (*Tracer[int])(nil)
