package interp

import "lowutil/internal/ir"

// Tracer observes execution through typed hooks: one per opcode class,
// each given the operands the machine resolved, and four around calls. All
// hooks run synchronously on the interpreter goroutine (a Detacher's own
// consumer excepted); a Tracer may keep per-frame state in Frame.Shadow
// and per-object state in Object.Shadow.
//
// An instruction hook runs after the machine has executed in: the
// destination slot is written, so a tracer reads a produced value from
// fr.Locals[in.Dst], and the heap effect is applied; a store hook is also
// given the stored value v. fr is the executing frame. Gotos report
// nothing, and calls and returns report through the call hooks, which
// mirror the paper's tracking stack T:
//
//	caller executes OpCall
//	  → BeforeCall (actuals still in caller frame; push tracking data)
//	  → EnterMethod (callee frame exists, formals copied; pop into formals)
//	  ... callee body, each instruction reported through its hook ...
//	  → BeforeReturn (return instruction; push return-value tracking data)
//	  → AfterCall (back in caller, destination slot assigned)
//
// On a machine with a Window, the instruction hooks run only for the steps
// inside it, and AfterCall reports a value only for a return inside it; the
// call hooks run on every step, so the tracking stack and contexts stay
// exact. Clients embed NopTracer and override the hooks they need.
type Tracer interface {
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
	// LoadField and StoreField report field accesses on base.
	LoadField(in *ir.Instr, fr *Frame, base *Object)
	StoreField(in *ir.Instr, fr *Frame, base *Object, v Value)
	// LoadStatic and StoreStatic report static-field accesses.
	LoadStatic(in *ir.Instr, fr *Frame)
	StoreStatic(in *ir.Instr, fr *Frame, v Value)
	// LoadElem and StoreElem report OpALoad and OpAStore on arr at idx.
	LoadElem(in *ir.Instr, fr *Frame, arr *Object, idx int64)
	StoreElem(in *ir.Instr, fr *Frame, arr *Object, idx int64, v Value)
	// ArrayLen reports a length read of arr.
	ArrayLen(in *ir.Instr, fr *Frame, arr *Object)
	// Branch reports OpIf and its outcome. It runs after a taken branch
	// has moved fr.PC to the target, and before a fall-through advances
	// it.
	Branch(in *ir.Instr, fr *Frame, taken bool)
	// Native reports OpNative, after its destination (if any) is assigned.
	Native(in *ir.Instr, fr *Frame)
	// BeforeCall is called before argument copy; recv is the dispatched
	// receiver (nil for static calls); callee is the dispatch target.
	BeforeCall(in *ir.Instr, caller *Frame, callee *ir.Method, recv *Object)
	// EnterMethod is called once the callee frame is set up. recv is nil
	// for static methods and for the entry frame.
	EnterMethod(fr *Frame, recv *Object)
	// BeforeReturn is called when fr executes its return instruction.
	BeforeReturn(in *ir.Instr, fr *Frame)
	// AfterCall is called in the caller after the callee returned and the
	// destination slot (if any) has been assigned; hasValue reports that
	// the call assigned one, inside the machine's Window if it has one.
	AfterCall(in *ir.Instr, caller *Frame, hasValue bool)
}

// Detacher is a Tracer that can finish a run's hook work on a consumer
// goroutine. A traced machine offers it, at each poll once a loop has run
// DetachSteps steps, until it accepts; from then on the handlers call the
// tracer Detach returned. Every way out of the loop (return, VM error,
// cancellation, panic) routes the machine back to its Tracer and calls
// join, which waits for the consumer and re-raises its panic on the
// machine's goroutine.
//
// A wrapper that embeds a Detacher and overrides one of its hooks must
// decline: the consumer replays onto the embedded tracer, not the wrapper.
type Detacher interface {
	Tracer
	// Detach takes over the loop's live frames, innermost last; it may read
	// them only during the call, since the machine recycles popped frames.
	// It returns a nil tracer to decline.
	Detach(frames []*Frame) (t Tracer, join func())
}

// StepWindow is a range of steps, numbered from 0 in the order the machine
// runs them: step k is in the window when Lo ≤ k < Hi.
type StepWindow struct{ Lo, Hi int64 }

// contains reports whether step k is in w; a nil window holds every step.
func (w *StepWindow) contains(k int64) bool {
	return w == nil || (k >= w.Lo && k < w.Hi)
}

// NopTracer implements every hook as a no-op. Clients embed it and
// override the hooks they need; on its own it measures the hooked table's
// dispatch cost, separate from any tracer's work.
type NopTracer struct{}

func (NopTracer) Const(*ir.Instr, *Frame)                            {}
func (NopTracer) Unary(*ir.Instr, *Frame)                            {}
func (NopTracer) Binary(*ir.Instr, *Frame)                           {}
func (NopTracer) New(*ir.Instr, *Frame, *Object)                     {}
func (NopTracer) NewArray(*ir.Instr, *Frame, *Object)                {}
func (NopTracer) LoadField(*ir.Instr, *Frame, *Object)               {}
func (NopTracer) StoreField(*ir.Instr, *Frame, *Object, Value)       {}
func (NopTracer) LoadStatic(*ir.Instr, *Frame)                       {}
func (NopTracer) StoreStatic(*ir.Instr, *Frame, Value)               {}
func (NopTracer) LoadElem(*ir.Instr, *Frame, *Object, int64)         {}
func (NopTracer) StoreElem(*ir.Instr, *Frame, *Object, int64, Value) {}
func (NopTracer) ArrayLen(*ir.Instr, *Frame, *Object)                {}
func (NopTracer) Branch(*ir.Instr, *Frame, bool)                     {}
func (NopTracer) Native(*ir.Instr, *Frame)                           {}
func (NopTracer) BeforeCall(*ir.Instr, *Frame, *ir.Method, *Object)  {}
func (NopTracer) EnterMethod(*Frame, *Object)                        {}
func (NopTracer) BeforeReturn(*ir.Instr, *Frame)                     {}
func (NopTracer) AfterCall(*ir.Instr, *Frame, bool)                  {}

var _ Tracer = NopTracer{}
