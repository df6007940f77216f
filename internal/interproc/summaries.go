package interproc

import (
	"context"
	"sort"

	"lowutil/internal/ir"
)

// Loc is an abstract heap location: a static field slot, or an (abstract
// object, field) pair. Field holds the static slot when Static is set, the
// dense field ID otherwise (ElemField for array elements).
type Loc struct {
	Static bool
	Obj    ObjID
	Field  int
}

func locLess(a, b Loc) bool {
	if a.Static != b.Static {
		return b.Static // object locs first, static locs last
	}
	if a.Obj != b.Obj {
		return a.Obj < b.Obj
	}
	return a.Field < b.Field
}

// Summaries holds the per-method interprocedural summaries: transitive
// mod/ref location sets and the formals each method never reads. All tables
// are indexed by ir.Method.ID and populated only for call-graph-reachable
// methods.
type Summaries struct {
	CG *CallGraph
	PT *PointsTo

	// deadParam[m][i] reports that m never reads formal parameter i at all
	// (no use, base or value, of its entry definition).
	deadParam [][]bool

	// mod/ref[m] are the abstract locations m may write/read, transitively
	// through callees.
	mod []map[Loc]bool
	ref []map[Loc]bool
}

// newSummaries computes the summaries to a global fixpoint over cg, polling
// ctx once per outer fixpoint iteration.
func newSummaries(ctx context.Context, cg *CallGraph, pt *PointsTo, flows map[int]*methodFlow) (*Summaries, error) {
	nm := countMethods(cg.Prog)
	s := &Summaries{
		CG:        cg,
		PT:        pt,
		deadParam: make([][]bool, nm),
		mod:       make([]map[Loc]bool, nm),
		ref:       make([]map[Loc]bool, nm),
	}
	for _, m := range cg.Methods() {
		s.deadParam[m.ID] = make([]bool, m.Params)
	}
	s.computeDeadParams(flows)
	if err := s.computeModRef(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// computeDeadParams marks formals whose entry definition reaches no operand.
func (s *Summaries) computeDeadParams(flows map[int]*methodFlow) {
	for _, m := range s.CG.Methods() {
		read := make([]bool, m.Params)
		mf := flows[m.ID]
		for pc := range mf.operands {
			for _, op := range mf.operands[pc] {
				for _, d := range op.Defs {
					if isParamDef(m, d) {
						read[paramOfDef(m, d)] = true
					}
				}
			}
		}
		for i := range read {
			s.deadParam[m.ID][i] = !read[i]
		}
	}
}

// computeModRef collects direct heap effects per method via the points-to
// relation, then closes them transitively over the call graph.
func (s *Summaries) computeModRef(ctx context.Context) error {
	for _, m := range s.CG.Methods() {
		mod := make(map[Loc]bool)
		ref := make(map[Loc]bool)
		for pc := range m.Code {
			in := &m.Code[pc]
			switch in.Op {
			case ir.OpStoreField:
				for _, o := range s.PT.VarPT(m, in.A) {
					mod[Loc{Obj: o, Field: in.Field.ID}] = true
				}
			case ir.OpAStore:
				for _, o := range s.PT.VarPT(m, in.A) {
					mod[Loc{Obj: o, Field: ElemField}] = true
				}
			case ir.OpStoreStatic:
				mod[Loc{Static: true, Field: in.Static.Slot}] = true
			case ir.OpLoadField:
				for _, o := range s.PT.VarPT(m, in.A) {
					ref[Loc{Obj: o, Field: in.Field.ID}] = true
				}
			case ir.OpALoad, ir.OpArrayLen:
				for _, o := range s.PT.VarPT(m, in.A) {
					ref[Loc{Obj: o, Field: ElemField}] = true
				}
			case ir.OpLoadStatic:
				ref[Loc{Static: true, Field: in.Static.Slot}] = true
			}
		}
		s.mod[m.ID] = mod
		s.ref[m.ID] = ref
	}
	for changed := true; changed; {
		changed = false
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, m := range s.CG.Methods() {
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != ir.OpCall {
					continue
				}
				for _, t := range s.CG.Targets(in) {
					for l := range s.mod[t.ID] {
						if !s.mod[m.ID][l] {
							s.mod[m.ID][l] = true
							changed = true
						}
					}
					for l := range s.ref[t.ID] {
						if !s.ref[m.ID][l] {
							s.ref[m.ID][l] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return nil
}

// DeadParam reports whether m never reads formal parameter slot.
func (s *Summaries) DeadParam(m *ir.Method, slot int) bool {
	if slot >= len(s.deadParam[m.ID]) {
		return false
	}
	return s.deadParam[m.ID][slot]
}

// ArgIgnoredByAllTargets reports whether argument position ai of call site
// in is dead in every resolved target — the value is computed by the caller
// and then read by no callee. False when the site resolves to no target.
func (s *Summaries) ArgIgnoredByAllTargets(in *ir.Instr, ai int) bool {
	ts := s.CG.Targets(in)
	if len(ts) == 0 {
		return false
	}
	for _, t := range ts {
		if !s.DeadParam(t, ai) {
			return false
		}
	}
	return true
}

// Mod returns the abstract locations m may write, transitively, sorted.
func (s *Summaries) Mod(m *ir.Method) []Loc { return sortedLocs(s.mod[m.ID]) }

// Ref returns the abstract locations m may read, transitively, sorted.
func (s *Summaries) Ref(m *ir.Method) []Loc { return sortedLocs(s.ref[m.ID]) }

func sortedLocs(set map[Loc]bool) []Loc {
	out := make([]Loc, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return locLess(out[i], out[j]) })
	return out
}
