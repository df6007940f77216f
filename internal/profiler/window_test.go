package profiler

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/workloads"
)

// windowRun profiles prog with the given step budget (0 for none) and
// window, on Run or, with ref, on RunReference, and returns the profiler
// and the machine. A run stopped by its budget is not an error.
func windowRun(t *testing.T, prog *ir.Program, maxSteps int64, w *interp.StepWindow, ref bool) (*Profiler, *interp.Machine) {
	t.Helper()
	p := New(prog, Options{Slots: 16, TrackCR: true})
	m := interp.New(prog)
	m.Tracer = p
	m.MaxSteps = maxSteps
	m.Window = w
	run := m.Run
	if ref {
		run = m.RunReference
	}
	var vm *interp.VMError
	if err := run(); err != nil && (!errors.As(err, &vm) || vm.Kind != interp.ErrStepLimit) {
		t.Fatal(err)
	}
	return p, m
}

// prefixEvents is F(s): the events an unwindowed profile of prog records
// in its first s steps.
func prefixEvents(t *testing.T, prog *ir.Program, s int64) int64 {
	t.Helper()
	if s == 0 {
		return 0
	}
	p, _ := windowRun(t, prog, s, nil, false)
	return p.G.TotalFreq()
}

// TestWindow pins §4.1's step window on tradebeans at scale 8 with the
// middle tenth of the run tracked. The windowed profile records exactly
// the events of its steps, F(hi) − F(lo) — none outside it, call results
// included — and the reference engine builds the same Gcost; an empty
// window records nothing.
func TestWindow(t *testing.T) {
	prog, err := workloads.ByName("tradebeans").Compile(8)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	n := m.Steps / 10
	w := &interp.StepWindow{Lo: (m.Steps - n) / 2, Hi: (m.Steps-n)/2 + n}

	p, pm := windowRun(t, prog, 0, w, false)
	want := prefixEvents(t, prog, w.Hi) - prefixEvents(t, prog, w.Lo)
	if got := p.G.TotalFreq(); got != want || want == 0 {
		t.Errorf("window [%d, %d) of %d steps recorded %d events, want F(hi) − F(lo) = %d",
			w.Lo, w.Hi, m.Steps, got, want)
	}
	if pm.Steps != m.Steps {
		t.Errorf("windowed run took %d steps, plain %d", pm.Steps, m.Steps)
	}
	ref, _ := windowRun(t, prog, 0, w, true)
	if !bytes.Equal(encodeGraph(t, p), encodeGraph(t, ref)) {
		t.Error("windowed Gcost differs from the reference engine's")
	}

	empty, _ := windowRun(t, prog, 0, &interp.StepWindow{Lo: w.Lo, Hi: w.Lo}, false)
	if empty.G.NumNodes() != 0 {
		t.Errorf("empty window recorded %d nodes", empty.G.NumNodes())
	}
}

// TestWindowDetached runs windows across a detach: one the run detaches
// inside, so it leaves the window while detached, and one that opens
// after the detach. Each must build the Gcost the reference engine, which
// never detaches, builds over the same window; the run must have detached
// exactly when GOMAXPROCS leaves room for a consumer (check.sh runs it at
// -cpu 1,2), and its consumer must be gone when the test ends.
func TestWindowDetached(t *testing.T) {
	prog := compileEntry(t, "main")
	before := quiet()
	defer settle(t, before)
	for _, w := range []*interp.StepWindow{
		{Lo: interp.DetachSteps / 2, Hi: 2 * interp.DetachSteps},
		{Lo: 3 * interp.DetachSteps / 2, Hi: 5 * interp.DetachSteps / 2},
	} {
		p, m := windowRun(t, prog, 0, w, false)
		if m.Detached != (runtime.GOMAXPROCS(0) >= 2) {
			t.Errorf("window %v: detached %v at GOMAXPROCS %d", *w, m.Detached, runtime.GOMAXPROCS(0))
		}
		ref, _ := windowRun(t, prog, 0, w, true)
		if p.G.TotalFreq() == 0 || !bytes.Equal(encodeGraph(t, p), encodeGraph(t, ref)) {
			t.Errorf("window %v: Gcost (%d events) differs from the reference engine's (%d)",
				*w, p.G.TotalFreq(), ref.G.TotalFreq())
		}
	}
}
