package lowutil

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lowutil/internal/interp"
	"lowutil/internal/workloads"
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

// FuzzCompile checks that Compile never panics and that every error it
// returns carries a *CompileError in its chain, whichever front-end stage,
// lexing, parsing, checking or lowering, refused the source.
func FuzzCompile(f *testing.F) {
	files, err := filepath.Glob("internal/fuzzgen/corpus/*.mj")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, w := range workloads.All() {
		f.Add(w.Source(1))
	}
	for _, src := range []string{
		"class Main { static void main() { print(x); } }",
		"class Main { static void main( } }",
		"class A { }",
		"class Main { static void main() { int[][] a = new int[2][]; a[0] = new boolean[1]; } }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Compile(src); err != nil {
			var ce *CompileError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T) has no *CompileError in its chain", err, err)
			}
		}
	})
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
// heap budget fails plain, profiled and client runs with a *HeapError
// (inside the run's *ProfileError) that still exposes the VM error.
func TestHeapErrorTyped(t *testing.T) {
	prog, err := Compile(`class Main { static void main() { int[] a = new int[1099511627776]; print(a.length); } }`)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := prog.RunContext(context.Background())
	_, profErr := prog.ProfileContext(context.Background())
	_, nullErr := prog.DiagnoseNull()
	_, tsErr := prog.Typestate(&TypestateProtocol{StateNames: []string{"s"}}, "Main")
	_, _, copyErr := prog.CopyChains(10)
	_, predErr := prog.ConstantPredicates(1)
	_, owErr := prog.SilentOverwrites(1)
	for name, err := range map[string]error{
		"run": runErr, "profile": profErr, "DiagnoseNull": nullErr, "Typestate": tsErr,
		"CopyChains": copyErr, "ConstantPredicates": predErr, "SilentOverwrites": owErr,
	} {
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
	pr, err := prog.ProfileContext(context.Background(), WithSlots(8), WithTreeHeight(2))
	if err != nil {
		t.Fatal(err)
	}
	if pr.height != 2 {
		t.Errorf("WithTreeHeight(2) not applied: height=%d", pr.height)
	}
	// Unset options resolve to the paper's configuration.
	o, err := resolve(KindProfile, nil)
	if err != nil || o.Slots != DefaultSlots || o.TreeHeight != DefaultTreeHeight {
		t.Errorf("defaults not applied: %+v, %v", o, err)
	}
	// WithOptions replaces what came before it; later options still apply.
	o, _ = resolve(KindProfile, []Option{WithSlots(4), WithOptions(Options{TreeHeight: 3}), WithTrackControl(), WithTop(7), WithTop(0)})
	if want := (Options{Slots: DefaultSlots, TreeHeight: 3, TrackControl: true, Top: DefaultTop}); o != want {
		t.Errorf("WithOptions fold = %+v, want %+v", o, want)
	}
}

// TestOptionsResolve pins what each kind reads: unread fields are zeroed
// and unset ones defaulted, so explicit defaults and unrelated fields
// resolve equal; only slice and audit check the call-graph mode.
func TestOptionsResolve(t *testing.T) {
	all := Options{Slots: 8, TreeHeight: 2, Traditional: true, TrackControl: true, Mode: "cha", ObjCtx: true, Top: 3}
	for _, c := range []struct {
		kind string
		in   Options
		want Options
	}{
		{KindProfile, Options{}, Options{Slots: DefaultSlots, TreeHeight: DefaultTreeHeight, Top: DefaultTop}},
		{KindReport, all, Options{Slots: 8, TreeHeight: 2, Traditional: true, TrackControl: true, Top: 3}},
		{KindProfile, Options{Mode: "bogus", Top: -1}, Options{Slots: DefaultSlots, TreeHeight: DefaultTreeHeight, Top: DefaultTop}},
		{KindAudit, Options{}, Options{Mode: "rta", Top: DefaultTop}},
		{KindAudit, Options{Mode: "rta", Slots: 8}, Options{Mode: "rta", Top: DefaultTop}},
		{KindSlice, all, Options{Mode: "cha", ObjCtx: true, Top: 3}},
		{KindRun, all, Options{}},
		{KindCompile, all, Options{}},
	} {
		got, err := c.in.Resolve(c.kind)
		if err != nil || got != c.want {
			t.Errorf("%+v.Resolve(%s) = %+v, %v; want %+v", c.in, c.kind, got, err, c.want)
		}
	}
	for _, c := range []struct{ kind, mode, field string }{
		{KindSlice, "bogus", "mode"},
		{KindAudit, "RTA", "mode"},
		{"nope", "", "kind"},
	} {
		var oe *OptionError
		if _, err := (Options{Mode: c.mode}).Resolve(c.kind); !errors.As(err, &oe) || oe.Field != c.field {
			t.Errorf("Resolve(%q) with mode %q: got %v, want an *OptionError on %s", c.kind, c.mode, err, c.field)
		}
	}
	var oe *OptionError
	if err := (Request{Kind: KindRun}).Validate(); !errors.As(err, &oe) || oe.Field != "source" {
		t.Errorf("sourceless request: got %v, want an *OptionError on source", err)
	}
	if err := (Request{Kind: KindAudit, Source: "x", Options: Options{Mode: "bogus"}}).Validate(); !errors.As(err, &oe) || oe.Field != "mode" {
		t.Errorf("bad-mode audit request: got %v, want an *OptionError on mode", err)
	}
	if err := (Request{Kind: KindProfile, Source: "x", Options: Options{Mode: "bogus"}}).Validate(); err != nil {
		t.Errorf("a profile request ignores the mode, got %v", err)
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

// TestVetAndSSADumpContext: a canceled context stops vet and the SSA dump
// with an ErrCanceled-wrapped error that keeps context.Canceled in the
// chain, and an unknown method stays a plain error.
func TestVetAndSSADumpContext(t *testing.T) {
	prog, err := Compile(workloads.ByName("chart").Source(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.VetContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.SSADumpContext(context.Background(), "Main.main"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.VetContext(ctx); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled vet: want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	for _, method := range []string{"", "Main.main"} {
		if _, err := prog.SSADumpContext(ctx, method); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("canceled SSA dump of %q: want ErrCanceled wrapping context.Canceled, got %v", method, err)
		}
	}
	if _, err := prog.SSADumpContext(context.Background(), "Main.nope"); err == nil || errors.Is(err, ErrCanceled) {
		t.Errorf("unknown method: want a plain error, got %v", err)
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
