package profiler

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/workloads"
)

// lifecycleSrc has one entry point per way a detached run can end. work
// runs about 40 steps per iteration over objects, arrays and calls, so a
// run passes interp.DetachSteps after some 7000 iterations.
const lifecycleSrc = `
class Cell { int v; Cell next; }
class Main {
  static Cell push(Cell head, int v) {
    Cell c = new Cell();
    c.v = v;
    c.next = head;
    return c;
  }
  static int work(int n) {
    int[] a = new int[16];
    Cell head = null;
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
      a[i % 16] = a[(i + 3) % 16] + i;
      if (i % 8 == 0) { head = push(null, i); }
      head = push(head, s);
      s = s + head.v + a[i % 16];
    }
    return s;
  }
  static void main() { print(work(20000)); }
  static void forever() {
    while (true) { work(100); }
  }
  static void bomb() {
    print(work(20000));
    while (true) { int[] big = new int[1000000]; }
  }
}`

// compileEntry compiles lifecycleSrc with the named Main method as entry.
func compileEntry(t *testing.T, entry string) *ir.Program {
	t.Helper()
	prog, err := mjc.CompileAt(lifecycleSrc, "Main", entry)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// withProcs runs the test body at GOMAXPROCS n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// quiet returns the goroutine count once it has held still for 10 ms. A
// goroutine an earlier test or subtest is done with, such as that
// subtest's own, may still be returning; counting it in a baseline would
// make the run look as if it ended a goroutine it never started.
func quiet() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && still < 10; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// settle waits for the goroutine count to fall back to n: a joined
// consumer has done all its work but may still be returning.
func settle(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > n; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != n {
		t.Errorf("%d goroutines after the run, %d before", got, n)
	}
}

func encodeGraph(t *testing.T, p *Profiler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.G.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// profileRun profiles prog on a machine set up by setup and returns the
// profiler, the machine and the run's error.
func profileRun(prog *ir.Program, setup func(*interp.Machine)) (*Profiler, *interp.Machine, error) {
	p := New(prog, Options{Slots: 16, TrackCR: true})
	m := interp.New(prog)
	m.Tracer = p
	if setup != nil {
		setup(m)
	}
	return p, m, m.Run()
}

// TestDetachedRunEnds ends detached runs on a VM error, by cancellation,
// and through CallMethod. Every run must have detached, joined its
// consumer (the goroutine count returns to its start), and, where the end
// is deterministic, built the Gcost the synchronous reference builds up
// to the same instruction.
func TestDetachedRunEnds(t *testing.T) {
	withProcs(t, 2)
	limit := func(m *interp.Machine) { m.MaxSteps = 3 * interp.DetachSteps }
	cases := []struct {
		name  string
		entry string
		setup func(*interp.Machine)
		kind  interp.ErrKind
	}{
		{"step-limit", "forever", limit, interp.ErrStepLimit},
		{"heap-limit", "bomb", nil, interp.ErrHeapLimit},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := compileEntry(t, c.entry)
			before := quiet()
			p, m, err := profileRun(prog, c.setup)
			var vm *interp.VMError
			if !errors.As(err, &vm) || vm.Kind != c.kind {
				t.Fatalf("run error %v, want kind %v", err, c.kind)
			}
			if !m.Detached {
				t.Fatal("run did not detach")
			}
			settle(t, before)
			ref := New(prog, Options{Slots: 16, TrackCR: true})
			rm := interp.New(prog)
			rm.Tracer = ref
			if c.setup != nil {
				c.setup(rm)
			}
			if err := rm.RunReference(); !errors.As(err, &vm) || vm.Kind != c.kind {
				t.Fatalf("reference error %v, want kind %v", err, c.kind)
			}
			if !bytes.Equal(encodeGraph(t, p), encodeGraph(t, ref)) || m.Steps != rm.Steps {
				t.Errorf("Gcost or steps (%d vs %d) differ from the reference's", m.Steps, rm.Steps)
			}
		})
	}

	t.Run("canceled", func(t *testing.T) {
		prog := compileEntry(t, "forever")
		before := quiet()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m := interp.New(prog)
		m.Tracer = &cancelOnDetach{New(prog, Options{Slots: 16, TrackCR: true}), cancel}
		m.Ctx = ctx
		if err := m.Run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("run error %v, want the cancellation", err)
		}
		if !m.Detached {
			t.Fatal("run did not detach")
		}
		settle(t, before)
	})

	t.Run("CallMethod", func(t *testing.T) {
		prog := compileEntry(t, "main")
		work := prog.ClassByName("Main").LookupMethod("work")
		before := quiet()
		p := New(prog, Options{Slots: 16, TrackCR: true})
		m := interp.New(prog)
		m.Tracer = p
		got, err := m.CallMethod(work, interp.IntVal(20000))
		if err != nil {
			t.Fatal(err)
		}
		if !m.Detached {
			t.Fatal("call did not detach")
		}
		settle(t, before)
		// CallMethod has no switch-engine twin; the reference is the same
		// call kept synchronous at GOMAXPROCS 1.
		ref := New(prog, Options{Slots: 16, TrackCR: true})
		rm := interp.New(prog)
		rm.Tracer = ref
		runtime.GOMAXPROCS(1)
		want, err := rm.CallMethod(work, interp.IntVal(20000))
		runtime.GOMAXPROCS(2)
		if err != nil {
			t.Fatal(err)
		}
		if rm.Detached {
			t.Fatal("the reference call detached")
		}
		if got != want || !bytes.Equal(encodeGraph(t, p), encodeGraph(t, ref)) {
			t.Errorf("call returned %v with a different Gcost; synchronous call returned %v", got, want)
		}
	})
}

// cancelOnDetach is a profiler that cancels its run's context as soon as
// the run detaches; the machine stops at its next poll.
type cancelOnDetach struct {
	*Profiler
	cancel func()
}

func (c *cancelOnDetach) Detach(frames []*interp.Frame) (interp.Tracer, func()) {
	h, join := c.Profiler.Detach(frames)
	if h != nil {
		c.cancel()
	}
	return h, join
}

// sabotaged is a profiler whose consumer panics on its first event: its
// Detach clears the dense index, which only the consumer reads from then
// on.
type sabotaged struct{ *Profiler }

func (s *sabotaged) Detach(frames []*interp.Frame) (interp.Tracer, func()) {
	s.tIdx = nil
	return s.Profiler.Detach(frames)
}

// TestDetachedPanicReraised: a consumer panic surfaces on the goroutine
// that called Run, after the join, and the consumer's slot is free again.
func TestDetachedPanicReraised(t *testing.T) {
	withProcs(t, 2)
	prog := compileEntry(t, "main")
	before := quiet()
	m := interp.New(prog)
	m.Tracer = &sabotaged{New(prog, Options{Slots: 16})}
	func() {
		defer func() {
			r := recover()
			err, ok := r.(runtime.Error)
			if !ok || !strings.Contains(err.Error(), "index out of range") {
				t.Errorf("recovered %v, want the consumer's index-out-of-range panic", r)
			}
		}()
		m.Run()
		t.Error("Run returned without re-raising the consumer's panic")
	}()
	settle(t, before)
	if _, m, err := profileRun(prog, nil); err != nil || !m.Detached {
		t.Errorf("a run after the panic: detached %v, error %v", m.Detached, err)
	}
}

// TestNoDetachAtOneProc: at GOMAXPROCS 1 no consumer slot exists, so a
// long run stays synchronous and builds the bytes a detached run builds.
func TestNoDetachAtOneProc(t *testing.T) {
	prog := longProgram(t, workloads.ByName("eclipse"), 2*interp.DetachSteps)
	run := func(procs int) (*Profiler, *interp.Machine) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		p, m, err := profileRun(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p, m
	}
	sp, sm := run(1)
	dp, dm := run(2)
	if sm.Detached || !dm.Detached {
		t.Fatalf("detached at GOMAXPROCS 1: %v, at 2: %v", sm.Detached, dm.Detached)
	}
	if !bytes.Equal(encodeGraph(t, sp), encodeGraph(t, dp)) {
		t.Error("Gcost at GOMAXPROCS 1 differs from the detached run's")
	}
}
