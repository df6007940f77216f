package interproc

import (
	"context"
	"sort"

	"lowutil/internal/ir"
)

// StaticGraph is the static over-approximation of the dynamic Gcost
// dependence graph, projected onto static instructions: if any run of the
// program (under thin slicing) records a dependence, reference, or
// points-to-child edge between two dynamic nodes, the corresponding static
// instruction pair is an edge here. Edge membership is the containment
// invariant the differential soundness harness checks.
//
// The construction mirrors the profiler's Figure-4 semantics edge class by
// edge class:
//
//   - value operands depend on their reaching definitions; a definition that
//     is a formal parameter resolves, through the call graph, to the
//     caller-side producers of the actual (EnterMethod copies the actual's
//     node into the formal with no intermediate node);
//   - a call site with a destination depends on every resolved target's
//     return-value producers (the AfterCall node);
//   - a heap load depends on every store that may write an aliased abstract
//     location (points-to overlap on the base, same field); static loads
//     depend on same-slot static stores; an array-length read depends on the
//     aliased allocation sites (the length is written by the allocation);
//   - field and element stores hold reference edges to the base's allocation
//     sites, and child edges from the written location to the stored value's
//     allocation sites (static stores record children only — no ref edge).
//
// Base-pointer operands contribute nothing, exactly as in thin slicing.
type StaticGraph struct {
	Prog *ir.Program
	CG   *CallGraph
	PT   *PointsTo

	deps     map[uint64]bool
	refs     map[uint64]bool
	children map[childKey]bool

	// depsOf/usesOf are the dependence adjacency (and its reverse) per
	// instruction ID, sorted, for the slice-bound traversals.
	depsOf [][]int32
	usesOf [][]int32

	// locStores/locLoads index the may-alias store and load instructions of
	// every abstract heap location.
	locStores map[Loc][]*ir.Instr
	locLoads  map[Loc][]*ir.Instr

	// argProducers[methodID][slot] holds the instruction IDs that may produce
	// the node a formal receives; retProducers[methodID] likewise for the
	// return value.
	argProducers [][][]int
	retProducers [][]int
}

type childKey struct {
	// owner is the allocation-site instruction ID of the written object, or
	// -1 for a static field.
	owner int32
	field int32
	child int32
}

func depKey(use, def int) uint64 { return uint64(uint32(use))<<32 | uint64(uint32(def)) }

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

// newStaticGraph builds the static Gcost over-approximation, polling ctx
// between phases and once per producer-fixpoint iteration.
func newStaticGraph(ctx context.Context, cg *CallGraph, pt *PointsTo, flows []*ir.ReachingDefs) (*StaticGraph, error) {
	prog := cg.Prog
	sg := &StaticGraph{
		Prog:      prog,
		CG:        cg,
		PT:        pt,
		deps:      make(map[uint64]bool),
		refs:      make(map[uint64]bool),
		children:  make(map[childKey]bool),
		locStores: make(map[Loc][]*ir.Instr),
		locLoads:  make(map[Loc][]*ir.Instr),
	}
	if err := sg.computeProducers(ctx, flows); err != nil {
		return nil, err
	}
	sg.indexLocs()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sg.addEdges(flows)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sg.buildAdjacency()
	return sg, nil
}

// computeProducers runs the producer fixpoint: the set of instructions whose
// node a formal parameter (or a return value) may carry. A formal's
// producers are, over every reachable call site targeting the method, the
// reaching definitions of the actual — where a definition that is itself a
// formal of the caller recurses into the caller's producers.
func (sg *StaticGraph) computeProducers(ctx context.Context, flows []*ir.ReachingDefs) error {
	nm := countMethods(sg.Prog)
	args := make([]map[int]bool, 0)
	argIdx := make([][]int, nm) // methodID → slot → index into args, -1 unset
	rets := make([]map[int]bool, nm)
	for _, m := range sg.CG.Methods() {
		argIdx[m.ID] = make([]int, m.Params)
		for i := range argIdx[m.ID] {
			argIdx[m.ID][i] = len(args)
			args = append(args, make(map[int]bool))
		}
		rets[m.ID] = make(map[int]bool)
	}
	addDef := func(set map[int]bool, caller *ir.Method, d int) bool {
		rd := flows[caller.ID]
		if !rd.IsParamDef(d) {
			id := int(caller.Code[d].ID)
			if !set[id] {
				set[id] = true
				return true
			}
			return false
		}
		changed := false
		for id := range args[argIdx[caller.ID][rd.ParamOf(d)]] {
			if !set[id] {
				set[id] = true
				changed = true
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, m := range sg.CG.Methods() {
			// Formals: pull from every reachable call site targeting m.
			for _, c := range sg.CG.CallersOf(m) {
				caller := c.Method
				ops := flows[caller.ID].Operands[c.PC]
				for i := 0; i < len(ops) && i < m.Params; i++ {
					set := args[argIdx[m.ID][i]]
					for _, d := range ops[i].Defs {
						if addDef(set, caller, d) {
							changed = true
						}
					}
				}
			}
			// Return values: defs reaching a return operand.
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != ir.OpReturn || !in.HasA {
					continue
				}
				for _, op := range flows[m.ID].Operands[pc] {
					for _, d := range op.Defs {
						if addDef(rets[m.ID], m, d) {
							changed = true
						}
					}
				}
			}
		}
	}
	sg.argProducers = make([][][]int, nm)
	sg.retProducers = make([][]int, nm)
	for _, m := range sg.CG.Methods() {
		sg.argProducers[m.ID] = make([][]int, m.Params)
		for i := range sg.argProducers[m.ID] {
			sg.argProducers[m.ID][i] = sortedKeys(args[argIdx[m.ID][i]])
		}
		sg.retProducers[m.ID] = sortedKeys(rets[m.ID])
	}
	return nil
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// locOf maps a heap-access instruction and one abstract base object to its
// abstract location.
func locOf(in *ir.Instr, o ObjID) Loc {
	switch in.Op {
	case ir.OpLoadField, ir.OpStoreField:
		return Loc{Obj: o, Field: in.Field().ID}
	default: // array element access
		return Loc{Obj: o, Field: ElemField}
	}
}

// indexLocs builds the per-location store/load indices.
func (sg *StaticGraph) indexLocs() {
	for _, m := range sg.CG.Methods() {
		for pc := range m.Code {
			in := &m.Code[pc]
			switch in.Op {
			case ir.OpStoreField, ir.OpAStore:
				for _, o := range sg.PT.VarPT(m, int(in.A)) {
					l := locOf(in, o)
					sg.locStores[l] = append(sg.locStores[l], in)
				}
			case ir.OpStoreStatic:
				l := Loc{Static: true, Field: in.Static().Slot}
				sg.locStores[l] = append(sg.locStores[l], in)
			case ir.OpLoadField, ir.OpALoad:
				for _, o := range sg.PT.VarPT(m, int(in.A)) {
					l := locOf(in, o)
					sg.locLoads[l] = append(sg.locLoads[l], in)
				}
			case ir.OpLoadStatic:
				l := Loc{Static: true, Field: in.Static().Slot}
				sg.locLoads[l] = append(sg.locLoads[l], in)
			}
		}
	}
}

func (sg *StaticGraph) addDep(use, def int)  { sg.deps[depKey(use, def)] = true }
func (sg *StaticGraph) addRef(store, al int) { sg.refs[depKey(store, al)] = true }

func (sg *StaticGraph) addChildren(owner int, field int, m *ir.Method, valSlot int) {
	for _, v := range sg.PT.VarPT(m, valSlot) {
		sg.children[childKey{int32(owner), int32(field), int32(sg.PT.Objects[v].Site.ID)}] = true
	}
}

// addEdges installs every edge class.
func (sg *StaticGraph) addEdges(flows []*ir.ReachingDefs) {
	// Value-operand and producer edges.
	for _, m := range sg.CG.Methods() {
		rd := flows[m.ID]
		for pc := range m.Code {
			in := &m.Code[pc]
			for _, op := range rd.Operands[pc] {
				if op.Base {
					continue
				}
				for _, d := range op.Defs {
					if rd.IsParamDef(d) {
						for _, p := range sg.argProducers[m.ID][rd.ParamOf(d)] {
							sg.addDep(int(in.ID), p)
						}
					} else {
						sg.addDep(int(in.ID), int(m.Code[d].ID))
					}
				}
			}
			switch in.Op {
			case ir.OpCall:
				if in.Dst >= 0 {
					for _, t := range sg.CG.Targets(in) {
						for _, r := range sg.retProducers[t.ID] {
							sg.addDep(int(in.ID), r)
						}
					}
				}
			case ir.OpArrayLen:
				// The length was written by the allocation itself.
				for _, o := range sg.PT.VarPT(m, int(in.A)) {
					sg.addDep(int(in.ID), int(sg.PT.Objects[o].Site.ID))
				}
			case ir.OpStoreField:
				for _, o := range sg.PT.VarPT(m, int(in.A)) {
					site := sg.PT.Objects[o].Site
					sg.addRef(int(in.ID), int(site.ID))
					sg.addChildren(int(site.ID), in.Field().ID, m, int(in.B))
				}
			case ir.OpAStore:
				for _, o := range sg.PT.VarPT(m, int(in.A)) {
					site := sg.PT.Objects[o].Site
					sg.addRef(int(in.ID), int(site.ID))
					sg.addChildren(int(site.ID), ElemField, m, int(in.C2))
				}
			case ir.OpStoreStatic:
				sg.addChildren(-1, in.Static().Slot, m, int(in.A))
			}
		}
	}
	// Heap load → aliased store edges, per abstract location.
	for l, loads := range sg.locLoads {
		stores := sg.locStores[l]
		for _, ld := range loads {
			for _, st := range stores {
				sg.addDep(int(ld.ID), int(st.ID))
			}
		}
	}
}

// buildAdjacency materializes sorted dependence adjacency lists.
func (sg *StaticGraph) buildAdjacency() {
	n := len(sg.Prog.Instrs)
	sg.depsOf = make([][]int32, n)
	sg.usesOf = make([][]int32, n)
	for k := range sg.deps {
		use := int(k >> 32)
		def := int(uint32(k))
		sg.depsOf[use] = append(sg.depsOf[use], int32(def))
		sg.usesOf[def] = append(sg.usesOf[def], int32(use))
	}
	for i := 0; i < n; i++ {
		sort.Slice(sg.depsOf[i], func(a, b int) bool { return sg.depsOf[i][a] < sg.depsOf[i][b] })
		sort.Slice(sg.usesOf[i], func(a, b int) bool { return sg.usesOf[i][a] < sg.usesOf[i][b] })
	}
}

// HasDep reports a static dependence edge use → def.
func (sg *StaticGraph) HasDep(use, def int) bool { return sg.deps[depKey(use, def)] }

// HasRef reports a static reference edge store → allocation site.
func (sg *StaticGraph) HasRef(store, alloc int) bool { return sg.refs[depKey(store, alloc)] }

// HasChild reports a static points-to child edge from location
// (ownerAllocInstr, field) — ownerAllocInstr -1 for statics, field the
// static slot then — to a stored object's allocation-site instruction.
func (sg *StaticGraph) HasChild(ownerAllocInstr, field, childAllocInstr int) bool {
	return sg.children[childKey{int32(ownerAllocInstr), int32(field), int32(childAllocInstr)}]
}

// NumDeps, NumRefs and NumChildren size the edge classes.
func (sg *StaticGraph) NumDeps() int     { return len(sg.deps) }
func (sg *StaticGraph) NumRefs() int     { return len(sg.refs) }
func (sg *StaticGraph) NumChildren() int { return len(sg.children) }

// NumLocs returns the number of distinct abstract locations accessed.
func (sg *StaticGraph) NumLocs() int {
	seen := make(map[Loc]bool, len(sg.locStores)+len(sg.locLoads))
	for l := range sg.locStores {
		seen[l] = true
	}
	for l := range sg.locLoads {
		seen[l] = true
	}
	return len(seen)
}

// LocBound is the static cost/benefit bound of one abstract heap location.
type LocBound struct {
	Key    Loc
	Stores int // may-alias store instructions
	Loads  int // may-alias load instructions

	// CostBound bounds the location's RAC: the size of the backward thin
	// slice from its stores, stopping at (but counting) heap-reading
	// instructions, mirroring the dynamic HRAC traversal.
	CostBound int
	// BenefitBound bounds the forward value flow out of the location's
	// loads, stopping at (but counting) consumers and heap writers (HRAB).
	BenefitBound int
	// Consumed reports whether any forward path reaches a predicate or
	// native consumer — a statically non-zero benefit witness.
	Consumed bool

	// WCost and WBenefit are the frequency-weighted counterparts of
	// CostBound and BenefitBound: each sliced instruction contributes its
	// loop-nest execution-frequency estimate instead of 1. Under
	// BoundsWeighted(nil) every instruction weighs 1 and WCost == CostBound.
	WCost    float64
	WBenefit float64
}

// WriteOnly reports a location with stores but no may-alias load — the
// static shadow of a dynamically zero-benefit location.
func (b *LocBound) WriteOnly() bool { return b.Stores > 0 && b.Loads == 0 }

// Bounds computes the static cost/benefit bound of every stored-to abstract
// location, ranked: write-only locations first (by cost bound descending),
// then by cost-per-benefit descending, ties broken by location key so the
// order is deterministic. Every instruction weighs 1 — see BoundsWeighted.
func (sg *StaticGraph) Bounds() []LocBound { return sg.BoundsWeighted(nil) }

// BoundsWeighted is Bounds under a static execution-frequency estimate: freq
// maps every instruction ID to its loop-nest frequency weight (Analysis.Freq).
// The weights tighten the bounds in two ways, both sound with respect to the
// dynamic-graph containment invariant:
//
//   - an instruction with weight 0 is statically proven never to execute
//     (CFG-unreachable, or dead under sparse conditional constant
//     propagation), so no dynamic node corresponds to it and the traversals
//     skip it outright — the counted bounds can only shrink;
//   - WCost/WBenefit accumulate each sliced instruction's frequency instead
//     of 1, so a store whose backward slice sits inside a hot loop nest
//     outranks an equal-sized slice of straight-line setup code, mirroring
//     the dynamic cost's per-execution accounting.
//
// A nil freq means every instruction weighs 1 (and nothing is skipped), which
// reproduces the unweighted Bounds exactly.
func (sg *StaticGraph) BoundsWeighted(freq []float64) []LocBound {
	locs := make([]Loc, 0, len(sg.locStores))
	for l := range sg.locStores {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locLess(locs[i], locs[j]) })

	out := make([]LocBound, 0, len(locs))
	for _, l := range locs {
		b := LocBound{Key: l, Stores: len(sg.locStores[l]), Loads: len(sg.locLoads[l])}
		b.CostBound, b.WCost = sg.backwardBound(sg.locStores[l], freq)
		b.BenefitBound, b.WBenefit, b.Consumed = sg.forwardBound(sg.locLoads[l], freq)
		out = append(out, b)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.WriteOnly() != b.WriteOnly() {
			return a.WriteOnly()
		}
		ra := a.WCost / (1 + a.WBenefit)
		rb := b.WCost / (1 + b.WBenefit)
		if ra != rb {
			return ra > rb
		}
		return locLess(a.Key, b.Key)
	})
	return out
}

// weightOf resolves an instruction's frequency weight: 1 everywhere when no
// estimate was supplied.
func weightOf(freq []float64, id int32) float64 {
	if freq == nil {
		return 1
	}
	return freq[id]
}

// backwardBound counts the backward thin slice from the given stores,
// stopping at heap readers after counting them (the static HRAC), skipping
// weight-0 (proven-dead) instructions, and summing frequency weights.
func (sg *StaticGraph) backwardBound(stores []*ir.Instr, freq []float64) (int, float64) {
	seen := make(map[int32]bool)
	wsum := 0.0
	var work []int32
	push := func(id int32) {
		if !seen[id] && weightOf(freq, id) > 0 {
			seen[id] = true
			wsum += weightOf(freq, id)
			work = append(work, id)
		}
	}
	for _, st := range stores {
		push(int32(st.ID))
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		in := sg.Prog.Instrs[id]
		if in.ReadsHeap() && !in.WritesHeap() {
			continue // count the reader, do not cross it
		}
		for _, d := range sg.depsOf[id] {
			push(d)
		}
	}
	return len(seen), wsum
}

// forwardBound counts the forward value flow from the given loads, stopping
// at consumers and heap writers after counting them (the static HRAB),
// skipping weight-0 instructions and summing frequency weights; it also
// reports whether a consumer was reached.
func (sg *StaticGraph) forwardBound(loads []*ir.Instr, freq []float64) (int, float64, bool) {
	seen := make(map[int32]bool)
	wsum := 0.0
	consumed := false
	var work []int32
	push := func(id int32) {
		if !seen[id] && weightOf(freq, id) > 0 {
			seen[id] = true
			wsum += weightOf(freq, id)
			work = append(work, id)
		}
	}
	for _, ld := range loads {
		push(int32(ld.ID))
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		in := sg.Prog.Instrs[id]
		if in.IsConsumer() {
			consumed = true
			continue
		}
		if in.WritesHeap() && !in.ReadsHeap() {
			continue
		}
		for _, u := range sg.usesOf[id] {
			push(u)
		}
	}
	return len(seen), wsum, consumed
}
