package contextenc_test

import (
	"slices"
	"testing"

	"lowutil/internal/contextenc"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// contextMirror wraps a CR-tracking profiler and recomputes, independently
// of it, the context of every event the profiler observes: the receiver
// allocation-site chain of Figure 4, extended at each virtual call and
// inherited by static calls. An event is an observation exactly when it
// leaves a context node behind — whether an instruction produces one
// depends only on its opcode — so each one is replayed into the model and
// into a fresh dense tracker.
type contextMirror struct {
	*profiler.Profiler
	slots   contextenc.Slots
	ctx     map[*interp.Frame]contextenc.Encoded
	pending contextenc.Encoded
	called  bool
	model   *contextenc.MapModel
	replay  *contextenc.ConflictTracker
}

func (c *contextMirror) observe(in *ir.Instr, g contextenc.Encoded) {
	if c.Profiler.G.Lookup(in, c.slots.Slot(g)) != nil {
		c.model.Observe(int(in.ID), g)
		c.replay.Observe(int(in.ID), g)
	}
}

// The hooks of the instructions that leave context nodes: every
// value-producing instruction but a native. Branches and natives leave
// context-free nodes.
func (c *contextMirror) Const(in *ir.Instr, fr *interp.Frame) {
	c.Profiler.Const(in, fr)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) Unary(in *ir.Instr, fr *interp.Frame) {
	c.Profiler.Unary(in, fr)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) Binary(in *ir.Instr, fr *interp.Frame) {
	c.Profiler.Binary(in, fr)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) New(in *ir.Instr, fr *interp.Frame, o *interp.Object) {
	c.Profiler.New(in, fr, o)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) NewArray(in *ir.Instr, fr *interp.Frame, o *interp.Object) {
	c.Profiler.NewArray(in, fr, o)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) LoadField(in *ir.Instr, fr *interp.Frame, base *interp.Object) {
	c.Profiler.LoadField(in, fr, base)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) StoreField(in *ir.Instr, fr *interp.Frame, base *interp.Object, v interp.Value) {
	c.Profiler.StoreField(in, fr, base, v)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) LoadStatic(in *ir.Instr, fr *interp.Frame) {
	c.Profiler.LoadStatic(in, fr)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) StoreStatic(in *ir.Instr, fr *interp.Frame, v interp.Value) {
	c.Profiler.StoreStatic(in, fr, v)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) LoadElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64) {
	c.Profiler.LoadElem(in, fr, arr, idx)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) StoreElem(in *ir.Instr, fr *interp.Frame, arr *interp.Object, idx int64, v interp.Value) {
	c.Profiler.StoreElem(in, fr, arr, idx, v)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) ArrayLen(in *ir.Instr, fr *interp.Frame, arr *interp.Object) {
	c.Profiler.ArrayLen(in, fr, arr)
	c.observe(in, c.ctx[fr])
}

func (c *contextMirror) BeforeCall(in *ir.Instr, caller *interp.Frame, callee *ir.Method, recv *interp.Object) {
	c.Profiler.BeforeCall(in, caller, callee, recv)
	c.pending = c.ctx[caller]
	if recv != nil {
		c.pending = contextenc.Extend(c.pending, recv.Site)
	}
	c.called = true
}

func (c *contextMirror) EnterMethod(fr *interp.Frame, recv *interp.Object) {
	c.Profiler.EnterMethod(fr, recv)
	switch {
	case c.called:
		c.ctx[fr] = c.pending
		c.called = false
	case recv != nil:
		c.ctx[fr] = contextenc.Extend(contextenc.EmptyContext, recv.Site)
	default:
		c.ctx[fr] = contextenc.EmptyContext
	}
}

func (c *contextMirror) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	c.Profiler.AfterCall(in, caller, hasValue)
	if hasValue && in != nil && in.Dst >= 0 {
		c.observe(in, c.ctx[caller])
	}
}

// TestProfiledCRMatchesMapModel profiles every workload at scale 1 with
// conflict tracking on the dense fast path and checks the profiler's CR
// figures against the map model fed the same observations. It also checks
// the mirror saw exactly the (instruction, slot) pairs the graph holds
// context nodes for, so the model cannot pass by seeing too little.
func TestProfiledCRMatchesMapModel(t *testing.T) {
	var conflicted []string
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		slots := contextenc.NewSlots(16)
		mirror := &contextMirror{
			Profiler: profiler.New(prog, profiler.Options{Slots: slots.S, TrackCR: true}),
			slots:    slots,
			ctx:      make(map[*interp.Frame]contextenc.Encoded),
			model:    contextenc.NewMapModel(slots, prog.NumInstrs()),
			replay:   contextenc.NewConflictTracker(slots, prog.NumInstrs()),
		}
		m := interp.New(prog)
		m.Tracer = mirror
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := contextenc.DiffModel(mirror.CR(), mirror.model); err != nil {
			t.Errorf("%s: profiler tracker vs model: %v", w.Name, err)
		}
		if err := contextenc.DiffModel(mirror.replay, mirror.model); err != nil {
			t.Errorf("%s: replayed tracker vs model: %v", w.Name, err)
		}
		contextNodes := 0
		mirror.G.Nodes(func(n *depgraph.Node) {
			if n.D >= 0 {
				contextNodes++
				if !mirror.model.Visited(int(n.In.ID), n.D) {
					t.Errorf("%s: node %s has no observation in the model", w.Name, n)
				}
			}
		})
		if pairs := mirror.model.VisitedPairs(); pairs != contextNodes {
			t.Errorf("%s: model saw %d (instruction, slot) pairs, graph has %d context nodes", w.Name, pairs, contextNodes)
		}
		if mirror.model.AverageCR() != 0 {
			conflicted = append(conflicted, w.Name)
		}
	}
	// The workloads whose scale-1 runs fold distinct contexts into one slot;
	// without them the comparison above would never exercise a conflict.
	slices.Sort(conflicted)
	if want := []string{"antlr", "bloat", "eclipse", "fop", "pmd"}; !slices.Equal(conflicted, want) {
		t.Errorf("workloads with non-zero average CR = %v, want %v", conflicted, want)
	}
}
