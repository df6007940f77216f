package lowutil

import (
	"context"
	"errors"
	"fmt"

	"lowutil/internal/interp"
	"lowutil/internal/lexer"
	"lowutil/internal/mjc"
	"lowutil/internal/parser"
)

// ErrCanceled is the sentinel wrapped into every error the facade returns
// for a run or analysis stopped by its context. errors.Is(err, ErrCanceled)
// detects cancellation regardless of which layer noticed it; the underlying
// context.Canceled / context.DeadlineExceeded stays visible through the
// chain too.
var ErrCanceled = errors.New("lowutil: canceled")

// CompileError is a compilation failure with source position. It wraps the
// front end's lexical, parse, or semantic error; Line/Col are 0 when the
// failure carries no position (e.g. an entry-point error at lowering).
type CompileError struct {
	Line, Col int
	Msg       string
	err       error
}

func (e *CompileError) Error() string { return e.err.Error() }

// Unwrap exposes the front-end error to errors.Is/As.
func (e *CompileError) Unwrap() error { return e.err }

// wrapCompileErr converts a front-end error into a *CompileError,
// extracting the source position when one of the known positioned error
// types is in the chain.
func wrapCompileErr(err error) error {
	if err == nil {
		return nil
	}
	ce := &CompileError{err: err}
	var (
		me *mjc.Error
		pe *parser.Error
		le *lexer.Error
	)
	switch {
	case errors.As(err, &me):
		ce.Line, ce.Col, ce.Msg = me.Pos.Line, me.Pos.Col, me.Msg
	case errors.As(err, &pe):
		ce.Line, ce.Col, ce.Msg = pe.Pos.Line, pe.Pos.Col, pe.Msg
	case errors.As(err, &le):
		ce.Line, ce.Col, ce.Msg = le.Pos.Line, le.Pos.Col, le.Msg
	default:
		ce.Msg = err.Error()
	}
	return ce
}

// SlotsError rejects a context-slot count too large for the program.
// Profiling sizes dense tables at one entry per (instruction, slot) pair
// under a fixed budget; Max is the largest count that fits it. Nothing is
// allocated before the error is returned.
type SlotsError struct {
	Slots, Max int
}

func (e *SlotsError) Error() string {
	return fmt.Sprintf("lowutil: %d context slots exceed the profiling table budget for this program (at most %d)", e.Slots, e.Max)
}

// ProfileError is a failure inside a profiling or plain run: Stage names
// the phase ("run", "analysis") and Err carries the cause — typically a
// *interp.VMError, or a *HeapError around one.
type ProfileError struct {
	Stage string
	Err   error
}

func (e *ProfileError) Error() string { return fmt.Sprintf("lowutil: %s: %v", e.Stage, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *ProfileError) Unwrap() error { return e.Err }

// HeapError reports a run stopped by the interpreter's heap budget: the
// program tried to allocate more than Max heap cells (object fields plus
// array elements) in one run. The budget is checked before memory is
// allocated, so an allocation bomb fails the request instead of the
// process. Err is the underlying *interp.VMError, naming the allocation.
type HeapError struct {
	Max int64
	Err error
}

func (e *HeapError) Error() string {
	return fmt.Sprintf("lowutil: %v", e.Err)
}

// Unwrap exposes the VM error to errors.Is/As.
func (e *HeapError) Unwrap() error { return e.Err }

// wrapRunErr classifies an error from the interpreter or an analysis
// phase: cancellation becomes an ErrCanceled-wrapped error (with the
// context error still in the chain), everything else a *ProfileError,
// with a heap-budget failure wrapped in a *HeapError inside it.
func wrapRunErr(stage string, err error) error {
	if err == nil {
		return nil
	}
	var vm *interp.VMError
	if errors.As(err, &vm) && vm.Kind == interp.ErrCanceled {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	if vm != nil && vm.Kind == interp.ErrHeapLimit {
		err = &HeapError{Max: interp.MaxHeapCells, Err: err}
	}
	return &ProfileError{Stage: stage, Err: err}
}
