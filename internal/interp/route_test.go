package interp_test

import (
	"errors"
	"testing"

	"lowutil/internal/clients"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
	"lowutil/internal/taint"
	"lowutil/internal/testprogs"
)

// embedded is a wrapper that embeds the profiler and overrides one hook:
// it inherits every other hook and runs the hooked table like the
// profiler, and its own Branch must see every branch.
type embedded struct {
	*profiler.Profiler
	branches int
}

func (e *embedded) Branch(in *ir.Instr, fr *interp.Frame, taken bool) {
	e.branches++
	e.Profiler.Branch(in, fr, taken)
}

// TestTracerRouting pins which runs take the hooked handler table: every
// traced run does — the profiler in every mode, a wrapper embedding it,
// the method-cost tracker, the nop tracer and the client tracers — and a
// run with no tracer takes the plain table. Re-running one machine with
// and without a tracer must switch every cached table view with it.
func TestTracerRouting(t *testing.T) {
	prog := testprogs.KitchenSink()
	newProfiler := func(opts profiler.Options) func() interp.Tracer {
		return func() interp.Tracer { return profiler.New(prog, opts) }
	}
	wrapper := &embedded{}
	cases := []struct {
		name   string
		tracer func() interp.Tracer
		hooked bool
	}{
		{"profiler default", newProfiler(profiler.Options{Slots: 16, TrackCR: true}), true},
		{"profiler no-cr", newProfiler(profiler.Options{Slots: 16}), true},
		{"profiler traditional", newProfiler(profiler.Options{Slots: 16, Traditional: true, TrackCR: true}), true},
		{"profiler control", newProfiler(profiler.Options{Slots: 16, TrackControl: true, TrackCR: true}), true},
		{"profiler unabstracted", newProfiler(profiler.Options{Unabstracted: true, UnabstractedCap: 4}), true},
		{"embedding wrapper", func() interp.Tracer {
			wrapper.Profiler = profiler.New(prog, profiler.Options{Slots: 16})
			return wrapper
		}, true},
		{"method cost", func() interp.Tracer {
			return clients.NewMethodCostTracker(profiler.New(prog, profiler.Options{Slots: 16}))
		}, true},
		{"nop", func() interp.Tracer { return interp.NopTracer{} }, true},
		{"null tracker", func() interp.Tracer { return clients.NewNullTracker(prog) }, true},
		{"copy profiler", func() interp.Tracer { return clients.NewCopyProfiler(prog) }, true},
		{"rewrite tracker", func() interp.Tracer { return clients.NewRewriteTracker(prog) }, true},
		{"predicate tracker", func() interp.Tracer { return clients.NewPredicateTracker(prog) }, true},
		{"taint", func() interp.Tracer { return taint.New(prog) }, true},
		{"none", func() interp.Tracer { return nil }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := interp.New(prog)
			m.Tracer = c.tracer()
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			hooked, consistent := interp.Routing(m)
			if hooked != c.hooked {
				t.Errorf("hooked table = %v, want %v", hooked, c.hooked)
			}
			if !consistent {
				t.Error("a cached table view is not of its kind")
			}
		})
	}
	if wrapper.branches == 0 {
		t.Error("the embedding wrapper's Branch saw no branches")
	}

	// One machine driven three times through CallMethod, traced, untraced
	// and traced again: each run must use the tables of its kind.
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	for _, tr := range []interp.Tracer{p, nil, p} {
		m.Tracer = tr
		if _, err := m.CallMethod(prog.Main); err != nil {
			t.Fatal(err)
		}
		hooked, consistent := interp.Routing(m)
		if want := tr != nil; hooked != want || !consistent {
			t.Errorf("%T: hooked=%v consistent=%v, want hooked=%v consistent", tr, hooked, consistent, want)
		}
	}
}

// heapBombs keep more than interp.MaxHeapCells: one array of 2^40
// elements, one of 2^28, a loop whose third 6M-element array crosses the
// budget, a print loop, and an array filled with zero-field objects,
// whose headers alone cross it. op is the instruction each fails at.
var heapBombs = []struct {
	name, src string
	op        ir.Op
}{
	{"2^40 array", `class Main { static void main() { int[] a = new int[1099511627776]; print(a.length); } }`, ir.OpNewArray},
	{"2^28 array", `class Main { static void main() { int[] a = new int[268435456]; print(a.length); } }`, ir.OpNewArray},
	{"loop", `class Main { static void main() { int i = 0; while (i < 5) { int[] a = new int[6000000]; a[0] = i; i = i + 1; } print(i); } }`, ir.OpNewArray},
	{"print loop", `class Main { static void main() { while (true) { print(1); } } }`, ir.OpNative},
	{"empty objects", `class E { } class Main { static void main() { E[] a = new E[16777000]; int i = 0; while (i < a.length) { a[i] = new E(); i = i + 1; } print(i); } }`, ir.OpNew},
}

// TestHeapBudget runs each heap bomb on both engines, plain and profiled:
// every run fails with ErrHeapLimit at the instruction that would cross
// the budget, before keeping what it would keep, and a print loop has
// printed one value per cell left.
func TestHeapBudget(t *testing.T) {
	for _, bomb := range heapBombs {
		prog, err := mjc.Compile(bomb.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name   string
			tracer interp.Tracer
			ref    bool
		}{
			{"plain", nil, false},
			{"profiled", profiler.New(prog, profiler.Options{Slots: 16, TrackCR: true}), false},
			{"reference", nil, true},
		} {
			t.Run(bomb.name+"/"+run.name, func(t *testing.T) {
				m := interp.New(prog)
				m.Tracer = run.tracer
				exec := m.Run
				if run.ref {
					exec = m.RunReference
				}
				err := exec()
				var vm *interp.VMError
				if !errors.As(err, &vm) || vm.Kind != interp.ErrHeapLimit {
					t.Fatalf("got %v, want an ErrHeapLimit VM error", err)
				}
				if vm.In == nil || vm.In.Op != bomb.op {
					t.Errorf("failing instruction %v, want a %v", vm.In, bomb.op)
				}
				want := 0
				if bomb.op == ir.OpNative {
					want = interp.MaxHeapCells
				}
				if len(m.Output) != want {
					t.Errorf("printed %d values before failing, want %d", len(m.Output), want)
				}
			})
		}
	}
}
