package lowutil

import (
	"context"
	"errors"
	"testing"
	"time"

	"lowutil/internal/interp"
)

// spinSrc loops forever so cancellation tests have something to interrupt.
const spinSrc = `
class Main {
	static void main() {
		int i = 0;
		while (true) { i = i + 1; }
	}
}
`

func TestCompileErrorPosition(t *testing.T) {
	_, err := Compile("class Main { static void main() { print(x); } }")
	if err == nil {
		t.Fatal("compile of undefined variable succeeded")
	}
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T) is not a *CompileError", err, err)
	}
	if ce.Line <= 0 || ce.Col <= 0 {
		t.Errorf("CompileError carries no position: line=%d col=%d", ce.Line, ce.Col)
	}
	if ce.Msg == "" {
		t.Error("CompileError has empty Msg")
	}
}

func TestCompileErrorParse(t *testing.T) {
	_, err := Compile("class Main { static void main( } }")
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("parse failure %v (%T) is not a *CompileError", err, err)
	}
	if ce.Line <= 0 {
		t.Errorf("parse CompileError has no line: %+v", ce)
	}
}

func TestRunContextCanceled(t *testing.T) {
	prog, err := Compile(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = prog.RunContext(ctx)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

func TestProfileContextDeadline(t *testing.T) {
	prog, err := Compile(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = prog.ProfileContext(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

func TestProfileErrorWrapsVMError(t *testing.T) {
	prog, err := Compile(`
class Main {
	static void main() {
		int[] a = new int[2];
		print(a[5]);
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.ProfileContext(context.Background())
	if err == nil {
		t.Fatal("out-of-bounds run succeeded")
	}
	var pe *ProfileError
	if !errors.As(err, &pe) || pe.Stage != "run" {
		t.Fatalf("want *ProfileError stage run, got %v (%T)", err, err)
	}
	var vm *interp.VMError
	if !errors.As(err, &vm) || vm.Kind != interp.ErrBounds {
		t.Fatalf("VMError kind not visible through chain: %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Error("bounds error must not satisfy ErrCanceled")
	}
}

// TestSlotsErrorBeforeAllocation asks for slot counts whose tables no
// machine could hold. ProfileContext must refuse them with a *SlotsError
// before sizing anything (the process would otherwise die in the
// allocator), and CheckSlots must draw the line exactly at Max.
func TestSlotsErrorBeforeAllocation(t *testing.T) {
	prog, err := Compile(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1 << 40, 1 << 62} {
		_, err := prog.ProfileContext(context.Background(), WithSlots(s))
		var se *SlotsError
		if !errors.As(err, &se) || se.Slots != s {
			t.Fatalf("WithSlots(%d): want *SlotsError, got %v (%T)", s, err, err)
		}
		if se.Max < 1024 {
			t.Errorf("Max = %d: the budget must admit 1024 slots on a %d-instruction program", se.Max, prog.NumInstructions())
		}
		if prog.CheckSlots(se.Max) != nil || prog.CheckSlots(se.Max+1) == nil {
			t.Errorf("CheckSlots does not draw the line at Max = %d", se.Max)
		}
	}
	if err := prog.CheckSlots(0); err != nil {
		t.Errorf("CheckSlots(0) (the default) = %v", err)
	}
}

// TestHeapErrorTyped: a program that allocates past the interpreter's
// heap budget fails both plain and profiled runs with a *HeapError (inside
// the run's *ProfileError) that still exposes the VM error.
func TestHeapErrorTyped(t *testing.T) {
	prog, err := Compile(`class Main { static void main() { int[] a = new int[1099511627776]; print(a.length); } }`)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := prog.RunContext(context.Background())
	_, profErr := prog.ProfileContext(context.Background())
	for name, err := range map[string]error{"run": runErr, "profile": profErr} {
		var he *HeapError
		var pe *ProfileError
		var vm *interp.VMError
		if !errors.As(err, &he) || he.Max != interp.MaxHeapCells {
			t.Errorf("%s: got %v, want a *HeapError with Max = MaxHeapCells", name, err)
		}
		if !errors.As(err, &pe) || pe.Stage != "run" {
			t.Errorf("%s: got %v, want it inside a run *ProfileError", name, err)
		}
		if !errors.As(err, &vm) || vm.Kind != interp.ErrHeapLimit {
			t.Errorf("%s: got %v, want the ErrHeapLimit VM error in the chain", name, err)
		}
	}
}

func TestProfileContextOptions(t *testing.T) {
	prog, err := Compile(`
class Main {
	static void main() {
		int[] a = new int[4];
		a[0] = 7;
		print(a[0]);
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prog.ProfileContext(context.Background(),
		WithSlots(8), WithTreeHeight(2), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if pr.height != 2 {
		t.Errorf("WithTreeHeight(2) not applied: height=%d", pr.height)
	}
	// Defaults fold first: zero-value opts get the paper's configuration.
	o := applyProfileOptions(nil)
	if o.Slots != DefaultSlots || o.TreeHeight != DefaultTreeHeight {
		t.Errorf("DefaultOptions not applied: %+v", o)
	}
}

func TestStaticSliceContext(t *testing.T) {
	prog, err := Compile(`
class Main {
	static void main() {
		int[] a = new int[4];
		a[1] = 3;
		print(a[1]);
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := prog.StaticSliceContext(context.Background(), WithMode("rta"), WithTop(5))
	if err != nil {
		t.Fatal(err)
	}
	def, err := prog.StaticSliceContext(context.Background(), WithTop(5))
	if err != nil {
		t.Fatal(err)
	}
	if def != v2 {
		t.Error("the default call-graph mode is not rta")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.StaticSliceContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled slice: want ErrCanceled, got %v", err)
	}
}

func TestWithMaxSteps(t *testing.T) {
	prog, err := Compile(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.ProfileContext(context.Background(), WithMaxSteps(5000))
	var vm *interp.VMError
	if !errors.As(err, &vm) || vm.Kind != interp.ErrStepLimit {
		t.Fatalf("want step-limit error, got %v", err)
	}
}
