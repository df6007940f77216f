package ir

import (
	"strings"
	"testing"
)

// TestValidateRejectsBypassedInit: a branch that jumps over a slot's only
// initialization leaves the read with no initializing path — rejected.
func TestValidateRejectsBypassedInit(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	g := mb.Goto(0)
	mb.Const(1, 5) // the only init of v1, jumped over
	l := mb.PC()
	mb.Move(2, 1) // read of v1
	mb.ReturnVoid()
	mb.Patch(g, l)
	if _, err := b.Seal("Main", "main"); err == nil ||
		!strings.Contains(err.Error(), "no path initializes") {
		t.Fatalf("want no-path-initializes error, got %v", err)
	}
}

// TestValidateAcceptsAllPathInit: a diamond that initializes the slot on
// both arms is fine.
func TestValidateAcceptsAllPathInit(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	ifpc := mb.If(0, Eq, 0, 0)
	mb.Const(1, 10)
	g := mb.Goto(0)
	elsePC := mb.PC()
	mb.Const(1, 20)
	join := mb.PC()
	mb.Move(2, 1)
	mb.ReturnVoid()
	mb.Patch(ifpc, elsePC)
	mb.Patch(g, join)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatalf("all-path init must validate: %v", err)
	}
}

// TestValidateAcceptsOnePathInitRead: may-init validation tolerates a read
// that one path initializes (vet reports it instead of seal rejecting it).
func TestValidateAcceptsOnePathInitRead(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	ifpc := mb.If(0, Eq, 0, 0)
	mb.Const(1, 5) // initializes v1 on the fall-through path only
	l := mb.PC()
	mb.Move(2, 1)
	mb.ReturnVoid()
	mb.Patch(ifpc, l)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatalf("one-path init must pass seal-time validation: %v", err)
	}
}

// TestValidateRejectsFallOffViaBranch: an If whose fall-through runs past
// the end of the body is a falls-off error even though the taken edge is
// fine.
func TestValidateRejectsFallOffViaBranch(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	mb.If(0, Eq, 0, 0) // taken edge loops to pc0; fall-through exits the body
	if _, err := b.Seal("Main", "main"); err == nil ||
		!strings.Contains(err.Error(), "falls off") {
		t.Fatalf("want falls-off error, got %v", err)
	}
}

// TestValidateRejectsFrameSmallerThanParams: a method whose declared frame
// cannot hold its own parameters is rejected at seal time. The Builder grows
// NumLocals automatically, so the regression shrinks it by hand, the way a
// hand-built program could.
func TestValidateRejectsFrameSmallerThanParams(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	callee := b.Method(cls, "two", true, 2, nil)
	b.Body(callee).ReturnVoid()
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	mb.Call(-1, callee, 0, 0)
	mb.ReturnVoid()
	callee.NumLocals = 1 // body touches no slot, so the builder left room for params only
	if _, err := b.Seal("Main", "main"); err == nil ||
		!strings.Contains(err.Error(), "cannot hold") {
		t.Fatalf("want frame-too-small error, got %v", err)
	}
}

// TestValidateRejectsCallArgOutOfRange pins the arg-slot bounds check on
// OpCall: an argument slot outside the caller's frame is rejected.
func TestValidateRejectsCallArgOutOfRange(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	callee := b.Method(cls, "one", true, 1, nil)
	b.Body(callee).ReturnVoid()
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	mb.Call(-1, callee, 0)
	mb.ReturnVoid()
	b.args[0] = 99 // past the frame the builder sized
	if _, err := b.Seal("Main", "main"); err == nil ||
		!strings.Contains(err.Error(), "arg slot 99 out of range") {
		t.Fatalf("want call-arg bounds error, got %v", err)
	}
}

// TestValidateRejectsNativeArgOutOfRange pins the same bounds check on
// OpNative.
func TestValidateRejectsNativeArgOutOfRange(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	mb.Native(-1, NativePrint, 0)
	mb.ReturnVoid()
	b.args[0] = -3
	if _, err := b.Seal("Main", "main"); err == nil ||
		!strings.Contains(err.Error(), "arg slot -3 out of range") {
		t.Fatalf("want native-arg bounds error, got %v", err)
	}
}
