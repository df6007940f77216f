package ssa

import (
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// constAt returns the SCCP constant of the value defined at pc.
func constAt(t *testing.T, f *Func, sc *SCCP, pc int) (Const, bool) {
	t.Helper()
	v := f.DefOf[pc]
	if v == None {
		t.Fatalf("pc %d defines nothing", pc)
	}
	return sc.ConstOf(v)
}

// TestSCCPStraightLine folds a chain of arithmetic.
func TestSCCPStraightLine(t *testing.T) {
	var at int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, 6)
		bb.Const(1, 7)
		at = bb.Bin(2, ir.Mul, 0, 1)
		bb.Native(-1, ir.NativePrint, 2)
		bb.ReturnVoid()
	})
	f := Build(m, nil)
	sc := RunSCCP(f)
	if c, ok := constAt(t, f, sc, at); !ok || c.I != 42 {
		t.Fatalf("6*7: got (%+v, %v), want 42", c, ok)
	}
}

// TestSCCPUnreachableBranch proves a constant-false branch dead and folds
// the phi at the join to the surviving arm's constant.
func TestSCCPUnreachableBranch(t *testing.T) {
	var deadPC int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, 0)
		bb.Const(1, 7)
		j := bb.If(0, ir.Ne, 0, 0) // 0 != 0: never taken
		g := bb.Goto(0)
		bb.Patch(j, bb.PC())
		deadPC = bb.Const(1, 99) // dead arm
		bb.Patch(g, bb.PC())
		bb.Native(-1, ir.NativePrint, 1)
		bb.ReturnVoid()
	})
	f := Build(m, nil)
	sc := RunSCCP(f)
	if sc.Executable(deadPC) {
		t.Fatal("constant-false arm should be unexecutable")
	}
	// The join phi for slot 1 must fold to 7 (only the live arm flows).
	join := f.CFG.BlockOf[len(m.Code)-2]
	for _, pv := range f.Phis[join] {
		if f.Vals[pv].Slot != 1 {
			continue
		}
		if c, ok := sc.ConstOf(pv); !ok || c.I != 7 {
			t.Fatalf("join phi: got (%+v, %v), want const 7", c, ok)
		}
		return
	}
	// Pruned SSA may even skip the phi if the dead arm got pruned — but slot 1
	// is live and defined on two CFG paths, so the phi must exist.
	t.Fatal("no phi for slot 1 at join")
}

// TestSCCPDivByZero: x/0 is a runtime error, not a constant; SCCP must not
// fold it and must keep the instruction overdefined.
func TestSCCPDivByZero(t *testing.T) {
	var at int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, 6)
		bb.Const(1, 0)
		at = bb.Bin(2, ir.Div, 0, 1)
		bb.Native(-1, ir.NativePrint, 2)
		bb.ReturnVoid()
	})
	f := Build(m, nil)
	sc := RunSCCP(f)
	if _, ok := constAt(t, f, sc, at); ok {
		t.Fatal("6/0 must not fold to a constant")
	}
}

// TestSCCPShiftMask: shifts fold with the interpreter's mask-to-63 rule.
func TestSCCPShiftMask(t *testing.T) {
	var at int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, 1)
		bb.Const(1, 65) // 65 & 63 == 1
		at = bb.Bin(2, ir.Shl, 0, 1)
		bb.Native(-1, ir.NativePrint, 2)
		bb.ReturnVoid()
	})
	f := Build(m, nil)
	sc := RunSCCP(f)
	want := int64(1) << (uint64(65) & 63)
	if c, ok := constAt(t, f, sc, at); !ok || c.I != want {
		t.Fatalf("1<<65: got (%+v, %v), want %d", c, ok, want)
	}
}

// TestSCCPLoopAccumulator: a loop-carried value must not fold (it varies),
// but loop-invariant constants inside the loop must.
func TestSCCPLoopAccumulator(t *testing.T) {
	var accPC, invPC int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Const(0, 0) // i
		bb.Const(1, 5) // n
		bb.Const(2, 0) // acc
		head := bb.PC()
		exit := bb.If(0, ir.Ge, 1, 0)
		bb.Const(3, 2)
		invPC = bb.Bin(4, ir.Add, 3, 3) // 2+2: loop-invariant constant
		accPC = bb.Bin(2, ir.Add, 2, 4) // acc += 4: varies
		bb.Const(5, 1)
		bb.Bin(0, ir.Add, 0, 5)
		bb.Goto(head)
		bb.Patch(exit, bb.PC())
		bb.Native(-1, ir.NativePrint, 2)
		bb.ReturnVoid()
	})
	f := Build(m, nil)
	sc := RunSCCP(f)
	if c, ok := constAt(t, f, sc, invPC); !ok || c.I != 4 {
		t.Fatalf("invariant 2+2: got (%+v, %v), want 4", c, ok)
	}
	if _, ok := constAt(t, f, sc, accPC); ok {
		t.Fatal("loop accumulator must not fold to a constant")
	}
}

// TestSCCPNullCompare: null == null folds; ordered null comparisons do not.
func TestSCCPNullCompare(t *testing.T) {
	var deadPC int
	_, m := buildMain(t, 0, func(_ *ir.Builder, bb *ir.BodyBuilder) {
		bb.Null(0)
		bb.Null(1)
		bb.Const(2, 1)
		j := bb.If(0, ir.Ne, 1, 0) // null != null: never taken
		g := bb.Goto(0)
		bb.Patch(j, bb.PC())
		deadPC = bb.Const(2, 9)
		bb.Patch(g, bb.PC())
		bb.Native(-1, ir.NativePrint, 2)
		bb.ReturnVoid()
	})
	f := Build(m, nil)
	sc := RunSCCP(f)
	if sc.Executable(deadPC) {
		t.Fatal("null != null arm should be unexecutable")
	}
}

// TestSCCPAgreesWithInterp cross-checks every SCCP constant verdict in every
// workload against a dynamic run: whenever the instruction executed, the
// traced value must equal the predicted constant. This is the semantic
// soundness test for the transfer functions.
func TestSCCPAgreesWithInterp(t *testing.T) {
	forEachWorkload(t, func(t *testing.T, prog *ir.Program) {
		preds := make(map[int]Const) // Instr.ID → predicted constant
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				f := Build(m, nil)
				sc := RunSCCP(f)
				for pc := range m.Code {
					v := f.DefOf[pc]
					if v == None {
						continue
					}
					if cst, ok := sc.ConstOf(v); ok {
						preds[m.Code[pc].ID] = cst
					}
				}
			}
		}
		mach := interp.New(prog)
		ct := &constTracer{preds: preds}
		mach.Tracer = ct
		if err := mach.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if ct.failed != "" {
			t.Fatalf("SCCP constant contradicted by execution at %s", ct.failed)
		}
	})
}

// constTracer checks executed destination values against SCCP predictions.
type constTracer struct {
	interp.NopTracer
	preds  map[int]Const
	failed string
}

// check compares the value in wrote to its destination with the
// prediction for in, if there is one.
func (ct *constTracer) check(in *ir.Instr, fr *interp.Frame) {
	p, ok := ct.preds[in.ID]
	if !ok || ct.failed != "" {
		return
	}
	v := fr.Locals[in.Dst]
	var bad bool
	if p.IsNull {
		bad = !v.IsNull()
	} else {
		bad = v.K != ir.KindInt || v.I != p.I
	}
	if bad {
		ct.failed = in.String()
	}
}

// The hooks of the instructions that write a destination slot.
func (ct *constTracer) Const(in *ir.Instr, fr *interp.Frame)                 { ct.check(in, fr) }
func (ct *constTracer) Unary(in *ir.Instr, fr *interp.Frame)                 { ct.check(in, fr) }
func (ct *constTracer) Binary(in *ir.Instr, fr *interp.Frame)                { ct.check(in, fr) }
func (ct *constTracer) New(in *ir.Instr, fr *interp.Frame, _ *interp.Object) { ct.check(in, fr) }
func (ct *constTracer) NewArray(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	ct.check(in, fr)
}
func (ct *constTracer) LoadField(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	ct.check(in, fr)
}
func (ct *constTracer) LoadStatic(in *ir.Instr, fr *interp.Frame) { ct.check(in, fr) }
func (ct *constTracer) LoadElem(in *ir.Instr, fr *interp.Frame, _ *interp.Object, _ int64) {
	ct.check(in, fr)
}
func (ct *constTracer) ArrayLen(in *ir.Instr, fr *interp.Frame, _ *interp.Object) {
	ct.check(in, fr)
}
func (ct *constTracer) Native(in *ir.Instr, fr *interp.Frame) {
	if in.Dst >= 0 {
		ct.check(in, fr)
	}
}
