package profiler

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/workloads"
)

// sweepModes are the profiler configurations the engine differential
// covers: the facade's (conflict tracking on), plain thin slicing, and the
// three ablations.
var sweepModes = []struct {
	name string
	opts Options
}{
	{"default", Options{Slots: 16, TrackCR: true}},
	{"no-cr", Options{Slots: 16}},
	{"traditional", Options{Slots: 16, Traditional: true, TrackCR: true}},
	{"control", Options{Slots: 16, TrackControl: true, TrackCR: true}},
	{"unabstracted", Options{Unabstracted: true, UnabstractedCap: 8}},
}

// sweepWorkloads is all 18 workloads, trimmed to a dispatch-heavy spread
// under -short so the -race pass stays fast.
func sweepWorkloads() []*workloads.Workload {
	if !testing.Short() {
		return workloads.All()
	}
	var out []*workloads.Workload
	for _, name := range []string{"chart", "bloat", "eclipse", "tradebeans"} {
		out = append(out, workloads.ByName(name))
	}
	return out
}

// instanceCounter counts the instruction instances that touch a Gcost
// node: one per instruction hook, one per call whose result is assigned.
type instanceCounter struct {
	interp.NopTracer
	n int64
}

func (c *instanceCounter) Const(*ir.Instr, *interp.Frame)                     { c.n++ }
func (c *instanceCounter) Unary(*ir.Instr, *interp.Frame)                     { c.n++ }
func (c *instanceCounter) Binary(*ir.Instr, *interp.Frame)                    { c.n++ }
func (c *instanceCounter) New(*ir.Instr, *interp.Frame, *interp.Object)       { c.n++ }
func (c *instanceCounter) NewArray(*ir.Instr, *interp.Frame, *interp.Object)  { c.n++ }
func (c *instanceCounter) LoadField(*ir.Instr, *interp.Frame, *interp.Object) { c.n++ }
func (c *instanceCounter) LoadStatic(*ir.Instr, *interp.Frame)                { c.n++ }
func (c *instanceCounter) StoreStatic(*ir.Instr, *interp.Frame, interp.Value) { c.n++ }
func (c *instanceCounter) ArrayLen(*ir.Instr, *interp.Frame, *interp.Object)  { c.n++ }
func (c *instanceCounter) Branch(*ir.Instr, *interp.Frame, bool)              { c.n++ }
func (c *instanceCounter) Native(*ir.Instr, *interp.Frame)                    { c.n++ }
func (c *instanceCounter) LoadElem(*ir.Instr, *interp.Frame, *interp.Object, int64) {
	c.n++
}
func (c *instanceCounter) StoreField(*ir.Instr, *interp.Frame, *interp.Object, interp.Value) {
	c.n++
}
func (c *instanceCounter) StoreElem(*ir.Instr, *interp.Frame, *interp.Object, int64, interp.Value) {
	c.n++
}

func (c *instanceCounter) AfterCall(in *ir.Instr, _ *interp.Frame, hasValue bool) {
	if hasValue && in.Dst >= 0 {
		c.n++
	}
}

// TestEngineDifferentialModes extends the facade's engine differential
// (lowutil.TestEngineDifferentialAllWorkloads) to every profiler mode, on
// all 18 workloads.
func TestEngineDifferentialModes(t *testing.T) {
	for _, w := range sweepWorkloads() {
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		diffModes(t, w.Name, prog, false)
	}
}

// TestEngineDifferentialDetached runs the same sweep on long runs: each
// workload at the smallest power-of-two scale where it executes at least
// four times interp.DetachSteps, so at least three quarters of its events
// reach Gcost through the detached log. The product run must detach
// exactly when GOMAXPROCS leaves room for a consumer (check.sh runs it at
// -cpu 1,2). Under -short it keeps a call-heavy and a heap-heavy workload
// at twice the threshold, so half their events still pass through the log.
func TestEngineDifferentialDetached(t *testing.T) {
	ws, steps := workloads.All(), int64(4*interp.DetachSteps)
	if testing.Short() {
		ws, steps = []*workloads.Workload{workloads.ByName("antlr"), workloads.ByName("xalan")}, 2*interp.DetachSteps
	}
	for _, w := range ws {
		diffModes(t, w.Name, longProgram(t, w, steps), runtime.GOMAXPROCS(0) >= 2)
	}
}

// longProgram compiles w at the smallest power-of-two scale at which a
// plain run executes at least steps instructions.
func longProgram(t *testing.T, w *workloads.Workload, steps int64) *ir.Program {
	t.Helper()
	for scale := 1; ; scale *= 2 {
		prog, err := w.Compile(scale)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		m := interp.New(prog)
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if m.Steps >= steps {
			return prog
		}
	}
}

// TestEngineDifferentialCorpus runs the same comparison over the fuzz
// generator's checked-in corpus, whose programs mix field, static and
// array traffic the workloads do not. The files are read directly, since
// this package cannot import fuzzgen; they are small, so all of them run
// under -short too.
func TestEngineDifferentialCorpus(t *testing.T) {
	files, err := filepath.Glob("../fuzzgen/corpus/*.mj")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus programs found")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".mj")
		prog, err := mjc.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffModes(t, name, prog, false)
	}
}

// diffModes compares, in every sweep mode, the product (a bare profiler on
// the handler-table engine, which runs the hooked table's direct hook
// calls) with a memo-free reference: the switch engine (RunReference)
// calling the same hooks, with memo set to nil, the one switch that turns
// off both the link memo and the heap-effect memo. They must agree on the
// Gcost encoding, the step count and the conflict statistics, and the
// product's node frequencies must sum to the instances an independent
// counting tracer sees on the switch engine. The product run must have
// detached exactly when detached is set.
func diffModes(t *testing.T, name string, prog *ir.Program, detached bool) {
	t.Helper()
	counter := &instanceCounter{}
	cm := interp.New(prog)
	cm.Tracer = counter
	if err := cm.RunReference(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, mode := range sweepModes {
		t.Run(name+"/"+mode.name, func(t *testing.T) {
			product := New(prog, mode.opts)
			pm := interp.New(prog)
			pm.Tracer = product
			if err := pm.Run(); err != nil {
				t.Fatal(err)
			}
			if pm.Detached != detached {
				t.Errorf("product run detached: %v, want %v", pm.Detached, detached)
			}
			ref := New(prog, mode.opts)
			ref.memo = nil
			rm := interp.New(prog)
			rm.Tracer = ref
			if err := rm.RunReference(); err != nil {
				t.Fatal(err)
			}
			var pg, rg bytes.Buffer
			if err := product.G.Encode(&pg); err != nil {
				t.Fatal(err)
			}
			if err := ref.G.Encode(&rg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pg.Bytes(), rg.Bytes()) {
				t.Errorf("Gcost encoding differs (%d vs %d bytes)", pg.Len(), rg.Len())
			}
			if pm.Steps != rm.Steps {
				t.Errorf("steps: product %d, reference %d", pm.Steps, rm.Steps)
			}
			if mode.opts.TrackCR {
				pc, rc := product.CR(), ref.CR()
				if pc.AverageCR() != rc.AverageCR() || pc.DistinctContexts() != rc.DistinctContexts() {
					t.Errorf("conflicts: product CR %v over %d contexts, reference %v over %d",
						pc.AverageCR(), pc.DistinctContexts(), rc.AverageCR(), rc.DistinctContexts())
				}
			}
			if got := product.G.TotalFreq(); got != counter.n {
				t.Errorf("node frequencies sum to %d, counted %d instances", got, counter.n)
			}
		})
	}
}
