package interp

import (
	"fmt"

	"lowutil/internal/ir"
)

// ErrKind classifies VM runtime errors.
type ErrKind uint8

const (
	// ErrNullDeref is a null-pointer dereference (the paper's
	// NullPointerException; the trigger for the null-propagation client).
	ErrNullDeref ErrKind = iota
	// ErrBounds is an array index out of bounds.
	ErrBounds
	// ErrDivZero is an integer division or remainder by zero.
	ErrDivZero
	// ErrStepLimit means the configured MaxSteps budget was exhausted.
	ErrStepLimit
	// ErrStackOverflow means the call depth limit was exceeded.
	ErrStackOverflow
	// ErrType is a dynamic type violation (e.g. field access on an int).
	ErrType
	// ErrCast is a failed checked operation on classes.
	ErrCast
	// ErrNative is a native-method failure.
	ErrNative
	// ErrCanceled means the Machine's context was canceled or timed out;
	// the VMError's Cause carries the context error.
	ErrCanceled
	// ErrHeapLimit means an allocation would pass MaxHeapCells.
	ErrHeapLimit
)

var errKindNames = [...]string{
	ErrNullDeref:     "null dereference",
	ErrBounds:        "index out of bounds",
	ErrDivZero:       "division by zero",
	ErrStepLimit:     "step limit exceeded",
	ErrStackOverflow: "stack overflow",
	ErrType:          "type violation",
	ErrCast:          "bad cast",
	ErrNative:        "native error",
	ErrCanceled:      "canceled",
	ErrHeapLimit:     "heap budget exceeded",
}

func (k ErrKind) String() string {
	if int(k) < len(errKindNames) {
		return errKindNames[k]
	}
	return fmt.Sprintf("errkind(%d)", uint8(k))
}

// VMError is a runtime error raised during interpretation. It records the
// failing instruction and frame so diagnosis clients (e.g. null-propagation)
// can start their backward traversals from the failure point.
type VMError struct {
	Kind  ErrKind
	In    *ir.Instr
	Frame *Frame
	Msg   string
	// Cause is the underlying error, when one exists — for ErrCanceled it
	// is the machine context's error, so errors.Is(err, context.Canceled)
	// and errors.Is(err, context.DeadlineExceeded) see through the VMError.
	Cause error
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *VMError) Unwrap() error { return e.Cause }

func (e *VMError) Error() string {
	where := "?"
	if e.In != nil && e.In.Method != nil {
		where = fmt.Sprintf("%s pc %d (%s)", e.In.Method.QualifiedName(), e.In.PC, e.In)
	}
	if e.Msg != "" {
		return fmt.Sprintf("vm: %s at %s: %s", e.Kind, where, e.Msg)
	}
	return fmt.Sprintf("vm: %s at %s", e.Kind, where)
}
