package taint

import (
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/testprogs"
)

// sample wraps a Tracker and captures the cost of one slot right after a
// given instruction executes.
type sample struct {
	*Tracker
	instr *ir.Instr
	slot  int
	got   uint64
}

// Binary samples after an arithmetic instruction, the kind Figure 1's b
// is.
func (s *sample) Binary(in *ir.Instr, fr *interp.Frame) {
	s.Tracker.Binary(in, fr)
	if in == s.instr {
		s.got = s.Tracker.CostOf(fr, s.slot)
	}
}

// AfterCall also samples, since call instructions are reported through the
// call hooks.
func (s *sample) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	s.Tracker.AfterCall(in, caller, hasValue)
	if in == s.instr {
		s.got = s.Tracker.CostOf(caller, s.slot)
	}
}

func TestFigure1TaintDoubleCounts(t *testing.T) {
	fig := testprogs.Figure1()
	tr := New(fig.Prog)
	s := &sample{Tracker: tr, instr: fig.BInstr, slot: fig.BSlot}
	m := interp.New(fig.Prog)
	m.Tracer = s
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if s.got <= uint64(fig.DistinctCost) {
		t.Errorf("taint cost = %d, want > %d: double counting is the point", s.got, fig.DistinctCost)
	}
}

func TestSaturationInsteadOfOverflow(t *testing.T) {
	// An accumulator squaring its own cost every iteration overflows any
	// counter quickly; the tracker must saturate, not wrap.
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)   // x
	mb.Const(1, 0)   // i
	mb.Const(2, 200) // n
	mb.Const(3, 1)   // one
	head := mb.If(1, ir.Ge, 2, -1)
	mb.Bin(0, ir.Add, 0, 0) // cost(x) ≈ 2*cost(x)+1 each round
	mb.Bin(1, ir.Add, 1, 3)
	mb.Goto(head)
	mb.Patch(head, mb.PC())
	mb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(prog)
	vm := interp.New(prog)
	vm.Tracer = tr
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if !tr.Overflowed {
		t.Error("expected saturation: the paper notes 64-bit overflow 'for even moderate-size applications'")
	}
}

func TestCostsFlowThroughHeapAndCalls(t *testing.T) {
	b := ir.NewBuilder()
	cls := b.Class("Box", nil)
	f := b.Field(cls, "v", ir.IntType)
	main := b.Class("Main", nil)
	id := b.Method(main, "id", true, 1, ir.IntType)
	ib := b.Body(id)
	ib.Return(0)
	m := b.Method(main, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 2)          // cost 1
	mb.Bin(1, ir.Add, 0, 0) // cost 3
	mb.New(2, cls)
	mb.StoreField(2, f, 1)        // heap cost 4
	mb.LoadField(3, 2, f)         // cost 5
	samplePC := mb.Call(4, id, 3) // call adds 1 → 7 (arg 5 + return copy +1... )
	mb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(prog)
	s := &sample{Tracker: tr, instr: &m.Code[samplePC], slot: 4}
	vm := interp.New(prog)
	vm.Tracer = s
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if s.got < 5 {
		t.Errorf("cost through heap+call = %d, want >= 5", s.got)
	}
}
