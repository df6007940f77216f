package interproc

import (
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/workloads"
)

// The frequency-weighted bounds must be a sound refinement of the unweighted
// PR 3 bounds: weight-0 pruning only ever removes proven-dead instructions
// from the slices, so per location the weighted CostBound/BenefitBound can
// never exceed the unweighted ones, and a location statically consumed under
// weighting was consumed before. Across the workload suite at least one bound
// must strictly shrink — otherwise the weighting machinery is vacuous.
func TestWeightedBoundsNeverLooser(t *testing.T) {
	shortSet := map[string]bool{"chart": true, "avrora": true, "hsqldb": true, "luindex": true}
	strict := 0
	for _, w := range workloads.All() {
		if testing.Short() && !shortSet[w.Name] {
			continue
		}
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		an := Analyze(prog, Config{Mode: RTA})
		plain := an.Slice.Bounds()
		weighted := an.Bounds()
		if len(plain) != len(weighted) {
			t.Fatalf("%s: weighting changed the location set: %d vs %d", w.Name, len(plain), len(weighted))
		}
		byKey := make(map[Loc]*LocBound, len(plain))
		for i := range plain {
			byKey[plain[i].Key] = &plain[i]
		}
		for i := range weighted {
			wb := &weighted[i]
			pb := byKey[wb.Key]
			if pb == nil {
				t.Fatalf("%s: location %v only exists under weighting", w.Name, wb.Key)
			}
			if wb.CostBound > pb.CostBound || wb.BenefitBound > pb.BenefitBound {
				t.Errorf("%s: %s: weighted bounds looser: cost %d>%d or benefit %d>%d",
					w.Name, an.LocName(wb.Key), wb.CostBound, pb.CostBound, wb.BenefitBound, pb.BenefitBound)
			}
			if wb.Consumed && !pb.Consumed {
				t.Errorf("%s: %s: weighting fabricated a consumer witness", w.Name, an.LocName(wb.Key))
			}
			if wb.Stores != pb.Stores || wb.Loads != pb.Loads {
				t.Errorf("%s: %s: weighting changed raw store/load counts", w.Name, an.LocName(wb.Key))
			}
			if wb.CostBound < pb.CostBound || wb.BenefitBound < pb.BenefitBound {
				strict++
			}
		}
	}
	// The -short subset happens to contain no prunable dead code, so the
	// non-vacuity claim is only checked on the full suite.
	if strict == 0 && !testing.Short() {
		t.Error("no bound strictly tightened on any workload; weight-0 pruning is vacuous")
	}
}

// execRecorder marks every instruction the interpreter touches but the
// gotos, which report to no hook.
type execRecorder struct{ hit []bool }

func (r *execRecorder) Const(in *ir.Instr, _ *interp.Frame)                      { r.hit[in.ID] = true }
func (r *execRecorder) Unary(in *ir.Instr, _ *interp.Frame)                      { r.hit[in.ID] = true }
func (r *execRecorder) Binary(in *ir.Instr, _ *interp.Frame)                     { r.hit[in.ID] = true }
func (r *execRecorder) New(in *ir.Instr, _ *interp.Frame, _ *interp.Object)      { r.hit[in.ID] = true }
func (r *execRecorder) NewArray(in *ir.Instr, _ *interp.Frame, _ *interp.Object) { r.hit[in.ID] = true }
func (r *execRecorder) LoadField(in *ir.Instr, _ *interp.Frame, _ *interp.Object) {
	r.hit[in.ID] = true
}
func (r *execRecorder) LoadStatic(in *ir.Instr, _ *interp.Frame) { r.hit[in.ID] = true }
func (r *execRecorder) StoreStatic(in *ir.Instr, _ *interp.Frame, _ interp.Value) {
	r.hit[in.ID] = true
}
func (r *execRecorder) LoadElem(in *ir.Instr, _ *interp.Frame, _ *interp.Object, _ int64) {
	r.hit[in.ID] = true
}
func (r *execRecorder) StoreField(in *ir.Instr, _ *interp.Frame, _ *interp.Object, _ interp.Value) {
	r.hit[in.ID] = true
}
func (r *execRecorder) StoreElem(in *ir.Instr, _ *interp.Frame, _ *interp.Object, _ int64, _ interp.Value) {
	r.hit[in.ID] = true
}
func (r *execRecorder) ArrayLen(in *ir.Instr, _ *interp.Frame, _ *interp.Object) { r.hit[in.ID] = true }
func (r *execRecorder) Branch(in *ir.Instr, _ *interp.Frame, _ bool)             { r.hit[in.ID] = true }
func (r *execRecorder) Native(in *ir.Instr, _ *interp.Frame)                     { r.hit[in.ID] = true }
func (r *execRecorder) BeforeCall(in *ir.Instr, _ *interp.Frame, _ *ir.Method, _ *interp.Object) {
	r.hit[in.ID] = true
}
func (r *execRecorder) EnterMethod(*interp.Frame, *interp.Object)  {}
func (r *execRecorder) BeforeReturn(in *ir.Instr, _ *interp.Frame) { r.hit[in.ID] = true }
func (r *execRecorder) AfterCall(*ir.Instr, *interp.Frame, bool)   {}

// TestFreqCoversExecution is the soundness side of weight-0 pruning: every
// instruction a real run executes must carry a positive static frequency
// estimate, or the pruned slices could miss dynamic nodes.
func TestFreqCoversExecution(t *testing.T) {
	shortSet := map[string]bool{"chart": true, "avrora": true, "hsqldb": true, "luindex": true}
	for _, w := range workloads.All() {
		if testing.Short() && !shortSet[w.Name] {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			an := Analyze(prog, Config{Mode: RTA})
			rec := &execRecorder{hit: make([]bool, len(prog.Instrs))}
			m := interp.New(prog)
			m.Tracer = rec
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			for id, hit := range rec.hit {
				if hit && an.Freq[id] <= 0 {
					in := prog.Instrs[id]
					t.Errorf("executed instruction i%d (%s.%s:%d %s) has frequency %g",
						id, in.Method.Class.Name, in.Method.Name, in.PC, in, an.Freq[id])
				}
			}
		})
	}
}
