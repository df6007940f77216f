package shadow_test

import (
	"fmt"
	"strings"
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/shadow"
)

// label is a rule whose cell names the instruction that defined a
// location; it logs every call with its input cells, whether it was given
// an object, and the value.
type label struct{ log []string }

func (l *label) Cell(in *ir.Instr, o *interp.Object, v interp.Value, ops []string) string {
	cell := fmt.Sprintf("%s@%d", in.Method.Name, in.PC)
	val := "ref"
	if v.K == ir.KindInt {
		val = fmt.Sprint(v.I)
	}
	l.log = append(l.log, fmt.Sprintf("%s %v o=%v v=%s", cell, ops, o != nil, val))
	return cell
}

// TestRuleInputs pins the input cells the tracer hands a rule for every
// kind of instruction, in Rule's documented order, and the cells the
// tracking stack carries into a callee and back out of it.
func TestRuleInputs(t *testing.T) {
	b := ir.NewBuilder()
	box := b.Class("Box", nil)
	f := b.Field(box, "v", ir.IntType)
	s := b.StaticField(box, "s", ir.IntType)
	main := b.Class("Main", nil)
	id := b.Method(main, "id", true, 1, ir.IntType)
	b.Body(id).Return(0)
	m := b.Method(main, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 3)                    // 0
	mb.New(1, box)                    // 1
	mb.StoreField(1, f, 0)            // 2: the stored local
	mb.LoadField(2, 1, f)             // 3: the field
	mb.NewArray(3, ir.IntType, 0)     // 4: the length
	mb.Const(4, 1)                    // 5
	mb.AStore(3, 4, 2)                // 6: the stored local, then the index
	mb.ALoad(5, 3, 4)                 // 7: the element, then the index
	mb.ArrayLen(6, 3)                 // 8: the array local
	mb.StoreStatic(s, 6)              // 9
	mb.LoadStatic(7, s)               // 10
	mb.Bin(8, ir.Add, 5, 7)           // 11: A, then B
	mb.Neg(9, 8)                      // 12
	mb.Move(10, 9)                    // 13
	mb.Call(11, id, 10)               // 14: the returned cell
	mb.Native(12, ir.NativeHash, 11)  // 15: the arguments
	mb.Native(-1, ir.NativePrint, 12) // no destination: no cell
	mb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	rule := &label{}
	vm := interp.New(prog)
	vm.Tracer = shadow.New[string](prog, rule)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(rule.log, "\n")
	want := strings.Join([]string{
		"main@0 [] o=false v=3",
		"main@1 [] o=true v=ref",
		"main@2 [main@0] o=true v=3",
		"main@3 [main@2] o=true v=3",
		"main@4 [main@0] o=true v=ref",
		"main@5 [] o=false v=1",
		"main@6 [main@3 main@5] o=true v=3",
		"main@7 [main@6 main@5] o=true v=3",
		"main@8 [main@4] o=true v=3",
		"main@9 [main@8] o=false v=3",
		"main@10 [main@9] o=false v=3",
		"main@11 [main@7 main@10] o=false v=6",
		"main@12 [main@11] o=false v=-6",
		"main@13 [main@12] o=false v=-6",
		"main@14 [main@13] o=false v=-6",
	}, "\n")
	// The hash itself is not pinned; compare up to it.
	if !strings.HasPrefix(got, want+"\nmain@15 [main@14] o=false v=") || len(rule.log) != 16 {
		t.Errorf("rule calls:\n%s\nwant\n%s\nmain@15 [main@14] o=false v=…", got, want)
	}
}
