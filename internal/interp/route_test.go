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

// embedded is a wrapper that embeds the profiler and overrides Exec, the
// shape of the phase-restricted tracking gate: it inherits every hook
// method, yet its own Exec must see every event.
type embedded struct {
	*profiler.Profiler
	events int
}

func (e *embedded) Exec(ev *interp.Event) {
	e.events++
	e.Profiler.Exec(ev)
}

// TestTracerRouting pins which tracers run the profiled handler table: a
// bare *profiler.Profiler in every mode does; a wrapper embedding one, the
// method-cost tracker, the nop tracer, the client tracers and no tracer at
// all take the plain table. Re-running one machine under a tracer of the
// other kind must switch every cached table view with it.
func TestTracerRouting(t *testing.T) {
	prog := testprogs.KitchenSink()
	newProfiler := func(opts profiler.Options) func() interp.Tracer {
		return func() interp.Tracer { return profiler.New(prog, opts) }
	}
	wrapper := &embedded{}
	cases := []struct {
		name     string
		tracer   func() interp.Tracer
		profiled bool
	}{
		{"profiler default", newProfiler(profiler.Options{Slots: 16, TrackCR: true}), true},
		{"profiler no-cr", newProfiler(profiler.Options{Slots: 16}), true},
		{"profiler traditional", newProfiler(profiler.Options{Slots: 16, Traditional: true, TrackCR: true}), true},
		{"profiler control", newProfiler(profiler.Options{Slots: 16, TrackControl: true, TrackCR: true}), true},
		{"profiler unabstracted", newProfiler(profiler.Options{Unabstracted: true, UnabstractedCap: 4}), true},
		{"embedding wrapper", func() interp.Tracer {
			wrapper.Profiler = profiler.New(prog, profiler.Options{Slots: 16})
			return wrapper
		}, false},
		{"method cost", func() interp.Tracer {
			return clients.NewMethodCostTracker(profiler.New(prog, profiler.Options{Slots: 16}))
		}, false},
		{"nop", func() interp.Tracer { return interp.NopTracer{} }, false},
		{"null tracker", func() interp.Tracer { return clients.NewNullTracker(prog) }, false},
		{"copy profiler", func() interp.Tracer { return clients.NewCopyProfiler(prog) }, false},
		{"rewrite tracker", func() interp.Tracer { return clients.NewRewriteTracker(prog) }, false},
		{"predicate tracker", func() interp.Tracer { return clients.NewPredicateTracker(prog) }, false},
		{"taint", func() interp.Tracer { return taint.New(prog) }, false},
		{"none", func() interp.Tracer { return nil }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := interp.New(prog)
			m.Tracer = c.tracer()
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			profiled, consistent := interp.Routing(m)
			if profiled != c.profiled {
				t.Errorf("profiled table = %v, want %v", profiled, c.profiled)
			}
			if !consistent {
				t.Error("a cached table view is not of the kind the machine runs")
			}
		})
	}
	if wrapper.events == 0 {
		t.Error("the embedding wrapper's Exec saw no events")
	}

	// One machine driven twice through CallMethod, under tracers of
	// different kinds: the second run must not reuse the first's tables.
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	for _, tr := range []interp.Tracer{p, interp.NopTracer{}, p} {
		m.Tracer = tr
		if _, err := m.CallMethod(prog.Main); err != nil {
			t.Fatal(err)
		}
		profiled, consistent := interp.Routing(m)
		if want := tr == interp.Tracer(p); profiled != want || !consistent {
			t.Errorf("%T: profiled=%v consistent=%v, want profiled=%v consistent", tr, profiled, consistent, want)
		}
	}
}

// heapBombs allocate past interp.MaxHeapCells: one array of 2^40
// elements, one of 2^28, and a loop whose third 6M-element array crosses
// the budget.
var heapBombs = []struct{ name, src string }{
	{"2^40 array", `class Main { static void main() { int[] a = new int[1099511627776]; print(a.length); } }`},
	{"2^28 array", `class Main { static void main() { int[] a = new int[268435456]; print(a.length); } }`},
	{"loop", `class Main { static void main() { int i = 0; while (i < 5) { int[] a = new int[6000000]; a[0] = i; i = i + 1; } print(i); } }`},
}

// TestHeapBudget runs each heap bomb on both engines, plain and profiled:
// every run fails with ErrHeapLimit at the allocation that would cross the
// budget, before allocating it.
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
				if vm.In == nil || vm.In.Op != ir.OpNewArray {
					t.Errorf("failing instruction %v, want the array allocation", vm.In)
				}
				if len(m.Output) != 0 {
					t.Errorf("printed %v before failing", m.Output)
				}
			})
		}
	}
}
