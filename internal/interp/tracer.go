package interp

import "lowutil/internal/ir"

// Event carries the resolved runtime context of one executed instruction to
// a Tracer's Exec. A machine whose Tracer is a Hooks implementation calls
// the typed hooks instead and never fills an Event, so the record serves
// the client tracers, wrappers around the profiler, and the reference
// engine. The machine fills only the fields relevant to the opcode:
//
//   - Base: the base object for field/array loads and stores (never nil —
//     a nil base raises a VM error before the tracer runs).
//   - Index: the resolved array index for OpALoad/OpAStore.
//   - New: the freshly allocated object for OpNew/OpNewArray.
//   - Taken: the branch outcome for OpIf.
//   - Val: the value written to the destination slot (loads, moves,
//     computations, allocations, natives with a destination) or the value
//     stored to the heap (stores). Clients such as null-propagation use it
//     to compute their abstraction functions.
//
// The handler-table engine reuses one Event record per machine: the pointer
// passed to Exec is only valid for the duration of the call, and fields an
// opcode does not define hold unspecified leftovers from earlier events —
// tracers must consult only the fields their opcode defines.
type Event struct {
	In    *ir.Instr
	Frame *Frame
	Base  *Object
	Index int64
	New   *Object
	Taken bool
	Val   Value
}

// Tracer observes execution. All hooks run synchronously on the interpreter
// goroutine (a Detacher's own consumer excepted); a Tracer may keep
// per-frame state in Frame.Shadow and per-object state in Object.Shadow.
//
// The hook protocol around calls mirrors the paper's tracking stack T:
//
//	caller executes OpCall
//	  → BeforeCall (actuals still in caller frame; push tracking data)
//	  → EnterMethod (callee frame exists, formals copied; pop into formals)
//	  ... callee body, each instruction reported via Exec ...
//	  → BeforeReturn (return instruction; push return-value tracking data)
//	  → AfterCall (back in caller, destination slot assigned)
//
// Natives are reported through Exec with Op == OpNative.
type Tracer interface {
	// Exec is called after the machine has executed in (destination slot
	// already updated, heap effect already applied).
	Exec(ev *Event)
	// BeforeCall is called before argument copy; recv is the dispatched
	// receiver (nil for static calls); callee is the dispatch target.
	BeforeCall(in *ir.Instr, caller *Frame, callee *ir.Method, recv *Object)
	// EnterMethod is called once the callee frame is set up. recv is nil
	// for static methods and for the entry frame.
	EnterMethod(fr *Frame, recv *Object)
	// BeforeReturn is called when fr executes its return instruction.
	BeforeReturn(in *ir.Instr, fr *Frame)
	// AfterCall is called in the caller after the callee returned and the
	// destination slot (if any) has been assigned.
	AfterCall(in *ir.Instr, caller *Frame, hasValue bool)
}

// Hooks is the typed form of Exec that the cost-benefit profiler
// implements: one method per opcode class, each given the operands the
// machine resolved. Each runs where Exec would, after the machine has
// executed in; fr is the executing frame. A machine runs the profiled
// handler table, which calls these methods directly and fills no Event,
// only when its Tracer is itself the implementation — when
// Tracer.(Hooks).Self() == Tracer. A wrapper that embeds an implementation
// inherits these methods but not that identity, so it keeps the plain
// table and its own Exec sees every event.
type Hooks interface {
	Tracer
	// Self returns the implementation the hooks run on: the receiver
	// itself, of a comparable (pointer) type.
	Self() Hooks
	// Const reports OpConst.
	Const(in *ir.Instr, fr *Frame)
	// Unary reports OpMove, OpNeg, OpNot and OpInstanceOf, whose result
	// depends on operand A.
	Unary(in *ir.Instr, fr *Frame)
	// Binary reports OpBin.
	Binary(in *ir.Instr, fr *Frame)
	// New and NewArray report allocations of o.
	New(in *ir.Instr, fr *Frame, o *Object)
	NewArray(in *ir.Instr, fr *Frame, o *Object)
	// LoadField and StoreField report field accesses on base; v is the
	// stored value.
	LoadField(in *ir.Instr, fr *Frame, base *Object)
	StoreField(in *ir.Instr, fr *Frame, base *Object, v Value)
	// LoadStatic and StoreStatic report static-field accesses; v is the
	// stored value.
	LoadStatic(in *ir.Instr, fr *Frame)
	StoreStatic(in *ir.Instr, fr *Frame, v Value)
	// LoadElem and StoreElem report OpALoad and OpAStore on arr at idx; v
	// is the stored value.
	LoadElem(in *ir.Instr, fr *Frame, arr *Object, idx int64)
	StoreElem(in *ir.Instr, fr *Frame, arr *Object, idx int64, v Value)
	// ArrayLen reports a length read of arr.
	ArrayLen(in *ir.Instr, fr *Frame, arr *Object)
	// Branch reports OpIf.
	Branch(in *ir.Instr, fr *Frame)
	// Native reports OpNative, after its destination (if any) is assigned.
	Native(in *ir.Instr, fr *Frame)
}

// Detacher is a Hooks implementation that can finish a run's hook work on
// a consumer goroutine. A machine on the profiled table offers it, at each
// poll once a loop has run DetachSteps steps, until it accepts; from then
// on the handlers call the hooks Detach returned. Every way out of the
// loop (return, VM error, cancellation, panic) routes the machine back to
// its Tracer and calls join, which waits for the consumer and re-raises
// its panic on the machine's goroutine.
type Detacher interface {
	Hooks
	// Detach takes over the loop's live frames, innermost last; it may read
	// them only during the call, since the machine recycles popped frames.
	// It returns nil hooks to decline.
	Detach(frames []*Frame) (h Hooks, join func())
}

// NopTracer is a Tracer that does nothing. It is useful for measuring the
// cost of the Event path that client tracers take, separate from their
// work.
type NopTracer struct{}

// Exec implements Tracer.
func (NopTracer) Exec(*Event) {}

// BeforeCall implements Tracer.
func (NopTracer) BeforeCall(*ir.Instr, *Frame, *ir.Method, *Object) {}

// EnterMethod implements Tracer.
func (NopTracer) EnterMethod(*Frame, *Object) {}

// BeforeReturn implements Tracer.
func (NopTracer) BeforeReturn(*ir.Instr, *Frame) {}

// AfterCall implements Tracer.
func (NopTracer) AfterCall(*ir.Instr, *Frame, bool) {}

var _ Tracer = NopTracer{}
