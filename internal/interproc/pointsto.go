package interproc

import (
	"context"
	"sort"

	"lowutil/internal/ir"
)

// NoCtx is the heap context of objects allocated outside any receiver
// context (static methods, or object sensitivity disabled).
const NoCtx = -1

// ElemField is the pseudo field for array elements, matching
// depgraph.ElemField.
const ElemField = -1

// ObjID indexes an abstract object in PointsTo.Objects.
type ObjID int32

// Object is one abstract heap object: an allocation site, optionally
// qualified by one level of receiver-object context (the allocation-site
// index of the receiver of the allocating method instance) — the static
// mirror of the profiler's object-sensitive context encoding.
type Object struct {
	// Site is the OpNew/OpNewArray instruction.
	Site *ir.Instr
	// Ctx is the receiver's allocation-site index, or NoCtx.
	Ctx int
}

// Config selects the call-graph mode and the heap abstraction.
type Config struct {
	Mode Mode
	// ObjCtx qualifies each allocation site with one level of
	// receiver-object context.
	ObjCtx bool
}

// PointsTo is the solved Andersen-style points-to relation: flow-insensitive
// over the call graph's reachable methods, field-sensitive over abstract
// objects.
type PointsTo struct {
	Prog *ir.Program
	CG   *CallGraph
	Cfg  Config

	// Objects lists the abstract objects, ID order = creation order (which
	// is deterministic).
	Objects []Object

	nvars     int
	varBase   []int // per method ID: first var of its local slots (-1 if unreachable)
	retBase   []int // per method ID: return var (-1 if none/unreachable)
	staticVar []int // per static slot

	pts []objSet // per var
	// fieldVars assigns a var to each touched (object, field) location.
	fieldVars map[fieldKey]int
	// fieldVarList records the locations in creation order for iteration.
	fieldVarList []fieldKey
}

type fieldKey struct {
	Obj   ObjID
	Field int // ir field ID, or ElemField
}

// objSet is a small deterministic set of ObjIDs (sorted slice).
type objSet struct{ ids []ObjID }

func (s *objSet) has(o ObjID) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= o })
	return i < len(s.ids) && s.ids[i] == o
}

func (s *objSet) add(o ObjID) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= o })
	if i < len(s.ids) && s.ids[i] == o {
		return false
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = o
	return true
}

// solver state used only during Analyze.
type ptSolver struct {
	pt *PointsTo

	// copyOut[v] lists vars w with pt(w) ⊇ pt(v).
	copyOut [][]int
	// loadsOf[v] lists pending field loads with base v; storesOf likewise.
	loadsOf  [][]fieldAccess
	storesOf [][]fieldAccess
	// dispatchOf[v] lists virtual call sites whose receiver is v.
	dispatchOf [][]*ir.Instr
	// allocsOf[v] lists allocation sites contextualized by receiver var v
	// (object sensitivity: v is the allocating method's this).
	allocsOf [][]allocC

	// boundCalls remembers (site, target) pairs already wired.
	boundCalls map[callTarget]bool

	objIDs map[Object]ObjID

	work []int // var worklist (FIFO)
	inWL []bool
	// pending[v] holds objects added to pt(v) since v was last processed.
	pending []objSet
}

type fieldAccess struct {
	field int
	other int // dst var for loads, src var for stores
}

type allocC struct {
	in  *ir.Instr
	dst int
}

type callTarget struct {
	site   int // instr ID
	target int // method ID
}

// NewPointsTo runs the analysis to fixpoint over cg's reachable methods.
func NewPointsTo(prog *ir.Program, cg *CallGraph, cfg Config) *PointsTo {
	pt, err := newPointsTo(context.Background(), prog, cg, cfg)
	if err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	return pt
}

// newPointsTo is NewPointsTo with a context checked periodically inside the
// propagation worklist; on cancellation the partial relation is discarded.
func newPointsTo(ctx context.Context, prog *ir.Program, cg *CallGraph, cfg Config) (*PointsTo, error) {
	nm := countMethods(prog)
	pt := &PointsTo{
		Prog:      prog,
		CG:        cg,
		Cfg:       cfg,
		varBase:   make([]int, nm),
		retBase:   make([]int, nm),
		staticVar: make([]int, len(prog.Statics)),
		fieldVars: make(map[fieldKey]int),
	}
	for i := range pt.varBase {
		pt.varBase[i] = -1
		pt.retBase[i] = -1
	}
	next := 0
	for _, m := range cg.Methods() {
		pt.varBase[m.ID] = next
		next += m.NumLocals
		if m.Returns != nil {
			pt.retBase[m.ID] = next
			next++
		}
	}
	for i := range pt.staticVar {
		pt.staticVar[i] = next
		next++
	}
	pt.nvars = next
	pt.pts = make([]objSet, next)

	s := &ptSolver{
		pt:         pt,
		copyOut:    make([][]int, next),
		loadsOf:    make([][]fieldAccess, next),
		storesOf:   make([][]fieldAccess, next),
		dispatchOf: make([][]*ir.Instr, next),
		allocsOf:   make([][]allocC, next),
		boundCalls: make(map[callTarget]bool),
		objIDs:     make(map[Object]ObjID),
		inWL:       make([]bool, next),
		pending:    make([]objSet, next),
	}
	s.build()
	if err := s.solve(ctx); err != nil {
		return nil, err
	}
	// Grow field vars discovered during solving into pts (they are appended
	// as ordinary vars, so nothing to do here — pts was grown in fieldVar).
	return pt, nil
}

// grow appends a fresh var (used for lazily created field vars).
func (s *ptSolver) grow() int {
	v := s.pt.nvars
	s.pt.nvars++
	s.pt.pts = append(s.pt.pts, objSet{})
	s.copyOut = append(s.copyOut, nil)
	s.loadsOf = append(s.loadsOf, nil)
	s.storesOf = append(s.storesOf, nil)
	s.dispatchOf = append(s.dispatchOf, nil)
	s.allocsOf = append(s.allocsOf, nil)
	s.inWL = append(s.inWL, false)
	s.pending = append(s.pending, objSet{})
	return v
}

// fieldVar returns the var holding the contents of (obj, field), creating it
// on first touch.
func (s *ptSolver) fieldVar(o ObjID, field int) int {
	k := fieldKey{o, field}
	if v, ok := s.pt.fieldVars[k]; ok {
		return v
	}
	v := s.grow()
	s.pt.fieldVars[k] = v
	s.pt.fieldVarList = append(s.pt.fieldVarList, k)
	return v
}

func (s *ptSolver) localVar(m *ir.Method, slot int) int { return s.pt.varBase[m.ID] + slot }

// obj interns an abstract object and returns its ID.
func (s *ptSolver) obj(site *ir.Instr, ctx int) ObjID {
	k := Object{Site: site, Ctx: ctx}
	if id, ok := s.objIDs[k]; ok {
		return id
	}
	id := ObjID(len(s.pt.Objects))
	s.objIDs[k] = id
	s.pt.Objects = append(s.pt.Objects, k)
	return id
}

// addObj inserts o into pt(v) and schedules propagation.
func (s *ptSolver) addObj(v int, o ObjID) {
	if !s.pt.pts[v].add(o) {
		return
	}
	s.pending[v].add(o)
	if !s.inWL[v] {
		s.inWL[v] = true
		s.work = append(s.work, v)
	}
}

// copyEdge adds pt(dst) ⊇ pt(src) and replays src's current set.
func (s *ptSolver) copyEdge(src, dst int) {
	if src == dst {
		return
	}
	s.copyOut[src] = append(s.copyOut[src], dst)
	for _, o := range s.pt.pts[src].ids {
		s.addObj(dst, o)
	}
}

// build walks every reachable method once and installs the base constraints.
func (s *ptSolver) build() {
	pt := s.pt
	for _, m := range pt.CG.Methods() {
		for pc := range m.Code {
			in := &m.Code[pc]
			switch in.Op {
			case ir.OpNew, ir.OpNewArray:
				dst := s.localVar(m, int(in.Dst))
				if pt.Cfg.ObjCtx && !m.Static {
					// Contextualized by the receiver: one abstract object per
					// receiver allocation site that reaches this.
					this := s.localVar(m, 0)
					s.allocsOf[this] = append(s.allocsOf[this], allocC{in: in, dst: dst})
					for _, o := range pt.pts[this].ids {
						s.addObj(dst, s.obj(in, int(pt.Objects[o].Site.AllocSite)))
					}
				} else {
					s.addObj(dst, s.obj(in, NoCtx))
				}
			case ir.OpMove:
				s.copyEdge(s.localVar(m, int(in.A)), s.localVar(m, int(in.Dst)))
			case ir.OpLoadField:
				base := s.localVar(m, int(in.A))
				dst := s.localVar(m, int(in.Dst))
				s.addLoad(base, in.Field().ID, dst)
			case ir.OpStoreField:
				base := s.localVar(m, int(in.A))
				src := s.localVar(m, int(in.B))
				s.addStore(base, in.Field().ID, src)
			case ir.OpALoad:
				s.addLoad(s.localVar(m, int(in.A)), ElemField, s.localVar(m, int(in.Dst)))
			case ir.OpAStore:
				s.addStore(s.localVar(m, int(in.A)), ElemField, s.localVar(m, int(in.C2)))
			case ir.OpLoadStatic:
				s.copyEdge(pt.staticVar[in.Static().Slot], s.localVar(m, int(in.Dst)))
			case ir.OpStoreStatic:
				s.copyEdge(s.localVar(m, int(in.A)), pt.staticVar[in.Static().Slot])
			case ir.OpCall:
				if in.Callee().Static {
					for _, t := range pt.CG.Targets(in) {
						s.bindCall(m, in, t, false)
					}
				} else {
					recv := s.localVar(m, int(in.Args()[0]))
					s.dispatchOf[recv] = append(s.dispatchOf[recv], in)
					for _, o := range pt.pts[recv].ids {
						s.dispatch(m, in, o)
					}
				}
			case ir.OpReturn:
				if in.HasA && pt.retBase[m.ID] >= 0 {
					s.copyEdge(s.localVar(m, int(in.A)), pt.retBase[m.ID])
				}
			}
		}
	}
}

func (s *ptSolver) addLoad(base, field, dst int) {
	s.loadsOf[base] = append(s.loadsOf[base], fieldAccess{field: field, other: dst})
	for _, o := range s.pt.pts[base].ids {
		s.copyEdge(s.fieldVar(o, field), dst)
	}
}

func (s *ptSolver) addStore(base, field, src int) {
	s.storesOf[base] = append(s.storesOf[base], fieldAccess{field: field, other: src})
	for _, o := range s.pt.pts[base].ids {
		s.copyEdge(src, s.fieldVar(o, field))
	}
}

// bindCall wires argument, receiver, and return flow for one (site, target)
// pair. Non-receiver argument edges are installed once; the receiver flows
// object-by-object through dispatch, keeping unrelated receiver classes out
// of this.
func (s *ptSolver) bindCall(caller *ir.Method, in *ir.Instr, t *ir.Method, virtual bool) {
	key := callTarget{int(in.ID), t.ID}
	if s.boundCalls[key] {
		return
	}
	s.boundCalls[key] = true
	if s.pt.varBase[t.ID] < 0 {
		return // target not reachable under this CG (cannot happen: CG added it)
	}
	start := 0
	if virtual {
		start = 1 // the receiver is bound per-object in dispatch
	}
	for i := start; i < len(in.Args()) && i < t.Params; i++ {
		s.copyEdge(s.localVar(caller, int(in.Args()[i])), s.pt.varBase[t.ID]+i)
	}
	if in.Dst >= 0 && s.pt.retBase[t.ID] >= 0 {
		s.copyEdge(s.pt.retBase[t.ID], s.localVar(caller, int(in.Dst)))
	}
}

// dispatch routes receiver object o arriving at virtual site in.
func (s *ptSolver) dispatch(caller *ir.Method, in *ir.Instr, o ObjID) {
	site := s.pt.Objects[o].Site
	if site.Op != ir.OpNew {
		return // arrays have no methods
	}
	t := site.Class().LookupMethod(in.Callee().Name)
	if t == nil {
		return
	}
	// Only follow edges the call graph admits (RTA can be narrower than the
	// points-to flow when a class is instantiated only in unreachable code).
	admitted := false
	for _, ct := range s.pt.CG.Targets(in) {
		if ct == t {
			admitted = true
			break
		}
	}
	if !admitted {
		return
	}
	s.bindCall(caller, in, t, true)
	if s.pt.varBase[t.ID] >= 0 && t.Params > 0 {
		s.addObj(s.pt.varBase[t.ID]+0, o)
	}
}

// solve runs the propagation worklist to fixpoint, polling ctx every few
// thousand pops so a canceled request abandons the fixpoint promptly.
func (s *ptSolver) solve(ctx context.Context) error {
	pops := 0
	for len(s.work) > 0 {
		if pops++; pops&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := s.work[0]
		s.work = s.work[1:]
		s.inWL[v] = false
		delta := s.pending[v].ids
		s.pending[v] = objSet{}
		if len(delta) == 0 {
			continue
		}
		// Resolve complex constraints for the new objects first (they may
		// add copy edges, which replay full sets themselves).
		for _, fa := range s.loadsOf[v] {
			for _, o := range delta {
				s.copyEdge(s.fieldVar(o, fa.field), fa.other)
			}
		}
		for _, fa := range s.storesOf[v] {
			for _, o := range delta {
				s.copyEdge(fa.other, s.fieldVar(o, fa.field))
			}
		}
		for _, in := range s.dispatchOf[v] {
			for _, o := range delta {
				s.dispatch(in.Method, in, o)
			}
		}
		for _, ac := range s.allocsOf[v] {
			for _, o := range delta {
				s.addObj(ac.dst, s.obj(ac.in, int(s.pt.Objects[o].Site.AllocSite)))
			}
		}
		for _, dst := range s.copyOut[v] {
			for _, o := range delta {
				s.addObj(dst, o)
			}
		}
	}
	return nil
}

// VarPT returns the points-to set of local slot s of m (sorted ObjIDs).
// Empty for unreachable methods and non-reference slots.
func (pt *PointsTo) VarPT(m *ir.Method, slot int) []ObjID {
	if pt.varBase[m.ID] < 0 {
		return nil
	}
	return pt.pts[pt.varBase[m.ID]+slot].ids
}

// StaticPT returns the points-to set of a static slot.
func (pt *PointsTo) StaticPT(slot int) []ObjID { return pt.pts[pt.staticVar[slot]].ids }

// LocPT returns the points-to set of location (o, field).
func (pt *PointsTo) LocPT(o ObjID, field int) []ObjID {
	if v, ok := pt.fieldVars[fieldKey{o, field}]; ok {
		return pt.pts[v].ids
	}
	return nil
}

// NumObjects returns the number of abstract objects.
func (pt *PointsTo) NumObjects() int { return len(pt.Objects) }

// NumLocs returns the number of touched abstract heap locations (object ×
// field pairs that were ever loaded or stored).
func (pt *PointsTo) NumLocs() int { return len(pt.fieldVarList) }

// AvgPTSize returns the mean points-to set size over reference vars with a
// non-empty set.
func (pt *PointsTo) AvgPTSize() float64 {
	sum, n := 0, 0
	for i := range pt.pts {
		if len(pt.pts[i].ids) > 0 {
			sum += len(pt.pts[i].ids)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
