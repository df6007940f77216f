// Package escape is the SSA-based interprocedural escape and lifetime
// analysis over the abstract heap computed by the interproc points-to
// relation — the layer that turns the static Gcost bounds into a fully
// static low-utility verdict per allocation site.
//
// Per allocation site the analysis classifies an escape state on the
// three-point lattice
//
//	no-escape  <  arg-escape  <  global-escape
//
// via summary-based propagation over the call graph. Each reachable method
// contributes a summary of the objects it may return (tracked SSA-precisely
// through moves, phis, and callee summaries — the flat slot-level points-to
// sets are too coarse here because the front end reuses local slots
// aggressively); a heap-contents fixpoint then records, per abstract
// location, which objects may be stored into it, and the global-escape
// fixpoint flows reachability-from-statics through those heap edges. The
// points-to relation supplies the base-object resolution for every heap
// access and the call graph the dispatch targets.
//
// The soundness argument mirrors the dynamic definition used by Observer: a
// reference can only outlive its allocating activation by being returned
// from the allocating method or by being written to the heap (an object
// field, array element, or static), and both events are visible to the
// value-flow fixpoint. Every dynamically observed escape is therefore
// covered statically — the dynamic ⊆ static invariant the soundness harness
// checks on all workloads.
//
// On top of the lattice the analysis infers a lifetime region
// (confined-to-method / confined-to-request / long-lived) from the escape
// state plus the allocating frame's extent, refines the intra-method span
// from SSA dominance and last-use information (the loop forest decides
// whether a confined allocation stays inside its allocating loop iteration),
// detects copy-chain shapes (alloc → populate → copy-out → drop), and
// aggregates the frequency-weighted static cost/benefit bounds per site into
// the static analogue of the paper's dynamic Gcost ranking.
package escape

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/ssa"
)

// State is the escape lattice value of an allocation site: the join over
// every abstract object the site contributes.
type State uint8

const (
	// NoEscape: no object of the site is ever written to the heap or
	// returned from its allocating method — it cannot be referenced once the
	// allocating frame pops.
	NoEscape State = iota
	// ArgEscape: some object of the site may be stored into another object
	// (or passed upward by a return from its allocating method) and can
	// therefore outlive the allocating frame, but is not reachable from a
	// static field.
	ArgEscape
	// GlobalEscape: some object of the site may become reachable from a
	// static field, directly or through a chain of heap edges.
	GlobalEscape
)

var stateNames = [...]string{NoEscape: "no-escape", ArgEscape: "arg-escape", GlobalEscape: "global-escape"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Region is the inferred lifetime region of an allocation site.
type Region uint8

const (
	// ConfinedToMethod: the object dies with its allocating frame.
	ConfinedToMethod Region = iota
	// ConfinedToRequest: the object may outlive its allocating frame but
	// stays reachable only through frames of the current run (request).
	ConfinedToRequest
	// LongLived: the object may be reachable from a static field, or is
	// captured by the entry frame, and so can live for the rest of the run.
	LongLived
)

var regionNames = [...]string{
	ConfinedToMethod:  "confined-to-method",
	ConfinedToRequest: "confined-to-request",
	LongLived:         "long-lived",
}

func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// SiteInfo is the per-allocation-site audit record.
type SiteInfo struct {
	// Site is the OpNew/OpNewArray instruction.
	Site   *ir.Instr
	State  State
	Region Region

	// CopyChain marks the alloc → populate → copy-out → drop shape: the
	// site is populated, values loaded out of it flow into a store whose
	// base is a different structure (or a static), and the site itself does
	// not escape globally — the container is a transient copy vehicle.
	CopyChain bool
	// InLoop marks a no-escape allocation inside a loop whose every
	// transitive SSA use stays within the allocating loop's body: one object
	// per iteration where one reused object would do.
	InLoop bool
	// LastUse is the largest pc in the allocating method at which the
	// allocated reference is still used (transitively through moves and
	// phis), or -1 when the reference is never used.
	LastUse int

	// Stores/Loads count the may-alias heap accesses over the site's
	// abstract locations; WCost/WBenefit aggregate the frequency-weighted
	// static bounds; Consumed reports that every location of the site has a
	// statically witnessed non-zero benefit — the whole structure is, by
	// Definition 6, never low-utility.
	Stores   int
	Loads    int
	WCost    float64
	WBenefit float64
	Consumed bool
	// Freq is the static execution-frequency estimate of the allocation
	// instruction itself.
	Freq float64

	// score sums the per-field cost/(1+benefit) ratios; nLocs/nConsumed
	// count the site's distinct fields and the consumed ones among them.
	score            float64
	nLocs, nConsumed int
}

// Score is the static low-utility ranking score of the site: the sum over
// the site's fields of the per-field cost/(1+benefit) ratio, with consumed
// fields contributing an exact 0 — the limit of cost/(1+benefit) as the
// witnessed benefit grows without bound, so a field that feeds control
// flow or output never raises its site's low-utility score.
func (s *SiteInfo) Score() float64 { return s.score }

// WriteOnly reports a site whose locations are stored but never loaded —
// the static shadow of a dynamically zero-benefit structure.
func (s *SiteInfo) WriteOnly() bool { return s.Stores > 0 && s.Loads == 0 }

// Result is the outcome of the escape/lifetime analysis and the static
// audit ranking built on it.
type Result struct {
	An *interproc.Analysis
	// Sites lists every reachable allocation site ascending by its dense
	// allocation-site index.
	Sites []SiteInfo

	bySite map[int]int // AllocSite → index into Sites
	az     *analyzer
}

// Analyze runs the escape/lifetime analysis over an already computed
// interprocedural analysis.
func Analyze(an *interproc.Analysis) *Result {
	r, err := AnalyzeContext(context.Background(), an)
	if err != nil {
		panic(err) // unreachable: the background context never cancels
	}
	return r
}

// AnalyzeContext is Analyze with a context polled inside every fixpoint
// iteration and between phases; on cancellation the partial result is
// discarded and the context error returned.
func AnalyzeContext(ctx context.Context, an *interproc.Analysis) (*Result, error) {
	r := &Result{
		An:     an,
		bySite: make(map[int]int),
	}

	// Enumerate reachable allocation sites, ascending by site index.
	var allocs []*ir.Instr
	for _, m := range an.CG.Methods() {
		for pc := range m.Code {
			if in := &m.Code[pc]; in.IsAlloc() {
				allocs = append(allocs, in)
			}
		}
	}
	sort.Slice(allocs, func(i, j int) bool { return allocs[i].AllocSite < allocs[j].AllocSite })
	for _, in := range allocs {
		r.bySite[in.AllocSite] = len(r.Sites)
		r.Sites = append(r.Sites, SiteInfo{Site: in, LastUse: -1})
	}

	a := newAnalyzer(an, r)
	r.az = a
	if err := a.solveValueFlow(ctx); err != nil {
		return nil, err
	}
	global, stored, retOwned, err := a.escapeStates(ctx)
	if err != nil {
		return nil, err
	}

	// Join object states into site states.
	for o := 0; o < an.PT.NumObjects(); o++ {
		idx, ok := r.bySite[an.PT.Objects[o].Site.AllocSite]
		if !ok {
			continue
		}
		st := NoEscape
		switch {
		case global[o]:
			st = GlobalEscape
		case stored[o] || retOwned[o]:
			st = ArgEscape
		}
		if st > r.Sites[idx].State {
			r.Sites[idx].State = st
		}
	}

	// Aggregate frequency-weighted heap traffic per (site, field) with
	// SSA-precise base attribution: each store or load charges only the
	// sites its resolved base set actually names (operandObjs for store
	// bases, the fixpoint's persistent loadBases for loads) — not the
	// slot-level may-alias closure the coarse bounds use, which smears
	// near-identical slices over every site. Weights are the loop-nest
	// execution-frequency estimates, so a store in a hot loop outweighs
	// straight-line setup code exactly as in the dynamic cost.
	type fieldAgg struct {
		stores, loads int
		cost, benefit float64
		consumed      bool
	}
	fields := make(map[[2]int]*fieldAgg) // (AllocSite, Field) → aggregate
	fieldOf := func(site, field int) *fieldAgg {
		k := [2]int{site, field}
		fa := fields[k]
		if fa == nil {
			fa = &fieldAgg{}
			fields[k] = fa
		}
		return fa
	}
	cons, err := r.solveConsumption(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	for _, m := range an.CG.Methods() {
		mf := a.flow(m)
		f := mf.f
		for pc := range m.Code {
			in := &m.Code[pc]
			var bases objSet
			field := interproc.ElemField
			isStore := false
			switch in.Op {
			case ir.OpStoreField:
				bases, isStore = a.operandObjs(mf, pc, 0), true
				field = in.Field.ID
			case ir.OpAStore:
				bases, isStore = a.operandObjs(mf, pc, 0), true
			case ir.OpLoadField:
				bases = a.loadBases[in]
				field = in.Field.ID
			case ir.OpALoad:
				bases = a.loadBases[in]
			default:
				continue
			}
			w := an.Freq[in.ID]
			consumed := false
			if !isStore {
				// A load whose value may reach a predicate or native
				// consumer is a statically witnessed non-zero benefit for
				// every field the load resolves to.
				if dv := f.DefOf[pc]; dv != ssa.None {
					consumed = cons.consumed(mf, dv)
				}
			}
			clear(seen)
			for o := range bases {
				site := an.PT.Objects[o].Site.AllocSite
				if seen[site] {
					continue // one instruction charges a site once
				}
				seen[site] = true
				if _, ok := r.bySite[site]; !ok {
					continue
				}
				fa := fieldOf(site, field)
				if isStore {
					fa.stores++
					fa.cost += w
				} else {
					fa.loads++
					fa.benefit += w
					fa.consumed = fa.consumed || consumed
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Fold the per-field aggregates into the per-site audit record. The
	// score sums per-field cost/(1+benefit) ratios over the stored fields
	// (mirroring the dynamic ranking, which only scores stored locations),
	// with consumed fields contributing an exact 0. The fold runs in sorted
	// key order: float addition is not associative, so folding in map order
	// would let tied sites' scores drift by an ULP between runs and flip
	// the ranking.
	keys := make([][2]int, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, k := range keys {
		fa := fields[k]
		si := &r.Sites[r.bySite[k[0]]]
		si.Stores += fa.stores
		si.Loads += fa.loads
		si.WCost += fa.cost
		si.WBenefit += fa.benefit
		if fa.stores == 0 {
			continue
		}
		si.nLocs++
		if fa.consumed {
			si.nConsumed++
		} else {
			si.score += fa.cost / (1 + fa.benefit)
		}
	}
	for i := range r.Sites {
		si := &r.Sites[i]
		si.Consumed = si.nLocs > 0 && si.nConsumed == si.nLocs
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Lifetime regions, SSA span facts, and copy-chain shapes.
	siteLoads := r.indexSiteLoads()
	for i := range r.Sites {
		si := &r.Sites[i]
		si.Freq = an.Freq[si.Site.ID]
		si.Region = r.region(si)
		r.ssaFacts(si)
		si.CopyChain = si.State != GlobalEscape && si.Stores > 0 &&
			r.copiedOut(si, siteLoads[si.Site.AllocSite])
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// objSet is a mutable set of abstract objects.
type objSet map[interproc.ObjID]bool

// heapLoc is one abstract heap location the value-flow fixpoint tracks.
type heapLoc struct {
	obj   interproc.ObjID
	field int
}

// analyzer carries the value-flow fixpoint state: per-method return
// summaries, per-location heap contents, and per-static-slot contents, all
// tracked through SSA so the front end's local-slot reuse does not bleed
// unrelated objects into the escape facts.
type analyzer struct {
	an *interproc.Analysis
	r  *Result

	// siteObjs maps an allocation instruction to its abstract objects (one
	// per receiver context under the object-sensitive heap).
	siteObjs map[*ir.Instr][]interproc.ObjID
	// rets[methodID] is the method's return summary: the objects it may
	// return, through any chain of moves, phis, loads, and callee returns.
	rets map[int]objSet
	// locs[(obj, field)] holds the objects that may be stored into the
	// location; statics[slot] likewise for static fields.
	locs    map[heapLoc]objSet
	statics map[int]objSet
	// loadBases[load] is the persistent base-object set of a heap load,
	// grown monotonically by the fixpoint. Loads read it instead of
	// re-resolving their base recursively, which keeps cyclic traversals
	// (x = x.next) convergent and sound.
	loadBases map[*ir.Instr]objSet
	// params[methodID][slot] binds formals to the union of every call
	// site's SSA-resolved actuals. The slot-level VarPT sets are not used
	// here: a caller that reuses one local slot for unrelated values would
	// bleed those objects into the callee's formals.
	params map[int][]objSet

	// round numbers the value-flow rounds. A value's object set is computed
	// once per round and method (methodFlow.objs); after the last round,
	// which changed nothing, the sets are final.
	round uint32
	// flows[m] is method m's per-value scratch, allocated once.
	flows map[*ir.Method]*methodFlow
}

// methodFlow is one method's reusable per-value state for the escape pass.
// It keeps each walk over the method's values linear in the method's size,
// however many accesses, loads or sites ask:
//
//   - sets[v] is value v's object set, valid when done[v] equals the
//     analyzer's round. One Tarjan walk over the move and phi edges
//     computes it for every value the walk reaches, and the members of a
//     phi cycle share one set;
//   - consumed[v] marks v as consumed in consumption round consRound;
//   - sink[v] summarizes the stores v may reach, for the copy-chain shape;
//   - seen[v] == epoch marks the values one span walk (ssaFacts) visited.
type methodFlow struct {
	m *ir.Method
	f *ssa.Func

	sets        []objSet
	done, visit []uint32
	index, low  []int32
	stack       []ssa.ValID
	next        int32

	consumed  []uint32
	consRound uint32

	sink []int32

	seen   []uint32
	epoch  uint32
	forest *ssa.Forest
}

func newAnalyzer(an *interproc.Analysis, r *Result) *analyzer {
	a := &analyzer{
		an:        an,
		r:         r,
		siteObjs:  make(map[*ir.Instr][]interproc.ObjID),
		rets:      make(map[int]objSet),
		locs:      make(map[heapLoc]objSet),
		statics:   make(map[int]objSet),
		loadBases: make(map[*ir.Instr]objSet),
		params:    make(map[int][]objSet),
		flows:     make(map[*ir.Method]*methodFlow),
	}
	for o := range an.PT.Objects {
		site := an.PT.Objects[o].Site
		a.siteObjs[site] = append(a.siteObjs[site], interproc.ObjID(o))
	}
	return a
}

func (a *analyzer) set(m map[int]objSet, k int) objSet {
	s := m[k]
	if s == nil {
		s = make(objSet)
		m[k] = s
	}
	return s
}

// param returns the mutable formal-binding set of t's parameter slot i.
func (a *analyzer) param(t *ir.Method, i int) objSet {
	ps := a.params[t.ID]
	if ps == nil {
		ps = make([]objSet, t.Params)
		a.params[t.ID] = ps
	}
	if i >= len(ps) {
		return nil
	}
	if ps[i] == nil {
		ps[i] = make(objSet)
	}
	return ps[i]
}

func (a *analyzer) loc(o interproc.ObjID, field int) objSet {
	k := heapLoc{o, field}
	s := a.locs[k]
	if s == nil {
		s = make(objSet)
		a.locs[k] = s
	}
	return s
}

func addAll(dst objSet, src objSet) bool {
	changed := false
	for o := range src {
		if !dst[o] {
			dst[o] = true
			changed = true
		}
	}
	return changed
}

// flow returns m's per-value state over the analysis's one SSA form of m.
func (a *analyzer) flow(m *ir.Method) *methodFlow {
	mf := a.flows[m]
	if mf == nil {
		f := a.an.Func(m)
		n := f.NumVals()
		mf = &methodFlow{
			m: m, f: f,
			sets: make([]objSet, n),
			done: make([]uint32, n), visit: make([]uint32, n),
			index: make([]int32, n), low: make([]int32, n),
		}
		a.flows[m] = mf
	}
	return mf
}

// operandObjs resolves the objects operand opIdx of the instruction at pc
// may hold. Unreachable instructions have no SSA operands and resolve to
// nothing (they cannot execute). The set is shared: callers must not
// modify it.
func (a *analyzer) operandObjs(mf *methodFlow, pc, opIdx int) objSet {
	ops := mf.f.Operands[pc]
	if opIdx >= len(ops) {
		return nil
	}
	return a.objs(mf, ops[opIdx])
}

// objs returns the abstract objects SSA value v may hold: allocations
// resolve to their site's objects, moves and phis are followed, loads read
// the heap-contents fixpoint over the resolved base objects, call results
// read the callee return summaries, and parameters read the
// call-site-bound formal sets. Everything else (arithmetic, constants,
// natives) is integer-valued and contributes nothing. The set is computed
// once per round and shared.
func (a *analyzer) objs(mf *methodFlow, v ssa.ValID) objSet {
	if v == ssa.None {
		return nil
	}
	if mf.done[v] != a.round {
		mf.next = 0
		a.strong(mf, v)
	}
	return mf.sets[v]
}

// valueDeps calls fn with each value whose objects v copies: the arguments
// of a phi and the source of a move.
func valueDeps(mf *methodFlow, v ssa.ValID, fn func(w ssa.ValID)) {
	val := &mf.f.Vals[v]
	switch val.Kind {
	case ssa.VPhi:
		for _, w := range val.Args {
			if w != ssa.None {
				fn(w)
			}
		}
	case ssa.VInstr:
		if mf.m.Code[val.PC].Op == ir.OpMove {
			if ops := mf.f.Operands[val.PC]; len(ops) > 0 {
				fn(ops[0])
			}
		}
	}
}

// ownObjs calls add with the objects value v holds by itself, before the
// values it copies (valueDeps) are taken in.
func (a *analyzer) ownObjs(mf *methodFlow, v ssa.ValID, add func(interproc.ObjID)) {
	val := &mf.f.Vals[v]
	switch val.Kind {
	case ssa.VParam:
		if ps := a.params[mf.m.ID]; val.Slot < len(ps) {
			for o := range ps[val.Slot] {
				add(o)
			}
		}
	case ssa.VInstr:
		in := &mf.m.Code[val.PC]
		switch in.Op {
		case ir.OpNew, ir.OpNewArray:
			for _, o := range a.siteObjs[in] {
				add(o)
			}
		case ir.OpLoadField, ir.OpALoad:
			field := interproc.ElemField
			if in.Op == ir.OpLoadField {
				field = in.Field.ID
			}
			for b := range a.loadBases[in] {
				for o := range a.locs[heapLoc{b, field}] {
					add(o)
				}
			}
		case ir.OpLoadStatic:
			for o := range a.statics[in.Static.Slot] {
				add(o)
			}
		case ir.OpCall:
			for _, t := range a.an.CG.Targets(in) {
				for o := range a.rets[t.ID] {
					add(o)
				}
			}
		}
	}
}

// strong is Tarjan's strongly-connected-components walk from v over
// valueDeps. When it closes a component, its members share one new set:
// the members' own objects plus the sets of the components they copy
// from, which the walk has already closed. A component with no objects
// keeps a nil set.
func (a *analyzer) strong(mf *methodFlow, v ssa.ValID) {
	r := a.round
	mf.visit[v] = r
	mf.index[v], mf.low[v] = mf.next, mf.next
	mf.next++
	mf.stack = append(mf.stack, v)
	valueDeps(mf, v, func(w ssa.ValID) {
		switch {
		case mf.visit[w] != r:
			a.strong(mf, w)
			mf.low[v] = min(mf.low[v], mf.low[w])
		case mf.done[w] != r: // on the stack
			mf.low[v] = min(mf.low[v], mf.index[w])
		}
	})
	if mf.low[v] != mf.index[v] {
		return
	}
	top := len(mf.stack) - 1
	for mf.stack[top] != v {
		top--
	}
	members := mf.stack[top:]
	var set objSet
	add := func(o interproc.ObjID) {
		if set == nil {
			set = make(objSet)
		}
		set[o] = true
	}
	for _, u := range members {
		a.ownObjs(mf, u, add)
		valueDeps(mf, u, func(w ssa.ValID) {
			if mf.done[w] == r { // closed earlier, not a member
				for o := range mf.sets[w] {
					add(o)
				}
			}
		})
	}
	for _, u := range members {
		mf.sets[u] = set
		mf.done[u] = r
	}
	mf.stack = mf.stack[:top]
}

// solveValueFlow saturates the mutually recursive return summaries, heap
// contents, and static contents, polling ctx once per outer iteration. A
// round reads each value's object set as it stood when the round first
// asked for it; facts it adds later are seen by the next round. The
// iteration only stops after a round that changed nothing, whose sets all
// read the final state, so every equation holds there and, since each fact
// was derived from facts already justified, the result is the least
// fixpoint.
func (a *analyzer) solveValueFlow(ctx context.Context) error {
	for changed := true; changed; {
		changed = false
		if err := ctx.Err(); err != nil {
			return err
		}
		a.round++
		for _, m := range a.an.CG.Methods() {
			mf := a.flow(m)
			f := mf.f
			for pc := range m.Code {
				in := &m.Code[pc]
				switch in.Op {
				case ir.OpLoadField, ir.OpALoad:
					bases := a.operandObjs(mf, pc, 0)
					if len(bases) == 0 {
						continue
					}
					dst := a.loadBases[in]
					if dst == nil {
						dst = make(objSet)
						a.loadBases[in] = dst
					}
					if addAll(dst, bases) {
						changed = true
					}
				case ir.OpStoreField:
					vals := a.operandObjs(mf, pc, 1)
					if len(vals) == 0 {
						continue
					}
					for b := range a.operandObjs(mf, pc, 0) {
						if addAll(a.loc(b, in.Field.ID), vals) {
							changed = true
						}
					}
				case ir.OpAStore:
					vals := a.operandObjs(mf, pc, 2)
					if len(vals) == 0 {
						continue
					}
					for b := range a.operandObjs(mf, pc, 0) {
						if addAll(a.loc(b, interproc.ElemField), vals) {
							changed = true
						}
					}
				case ir.OpStoreStatic:
					vals := a.operandObjs(mf, pc, 0)
					if len(vals) == 0 {
						continue
					}
					if addAll(a.set(a.statics, in.Static.Slot), vals) {
						changed = true
					}
				case ir.OpReturn:
					if !in.HasA {
						continue
					}
					vals := a.operandObjs(mf, pc, 0)
					if len(vals) == 0 {
						continue
					}
					if addAll(a.set(a.rets, m.ID), vals) {
						changed = true
					}
				case ir.OpCall:
					nops := len(f.Operands[pc])
					for i := 0; i < nops; i++ {
						vals := a.operandObjs(mf, pc, i)
						if len(vals) == 0 {
							continue
						}
						for _, t := range a.an.CG.Targets(in) {
							if dst := a.param(t, i); dst != nil && addAll(dst, vals) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// escapeStates derives the per-object lattice facts from the saturated
// value flow: stored objects (written to any heap location or static),
// globally reachable objects (the reachability-from-statics fixpoint over
// the heap edges), and objects returned out of their own allocating method.
func (a *analyzer) escapeStates(ctx context.Context) (global, stored, retOwned []bool, err error) {
	n := a.an.PT.NumObjects()
	global = make([]bool, n)
	stored = make([]bool, n)
	retOwned = make([]bool, n)
	for _, set := range a.statics {
		for o := range set {
			global[o] = true
			stored[o] = true
		}
	}
	for _, set := range a.locs {
		for o := range set {
			stored[o] = true
		}
	}
	for changed := true; changed; {
		changed = false
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		for l, set := range a.locs {
			if !global[l.obj] {
				continue
			}
			for o := range set {
				if !global[o] {
					global[o] = true
					changed = true
				}
			}
		}
	}
	for _, m := range a.an.CG.Methods() {
		for o := range a.rets[m.ID] {
			if a.an.PT.Objects[o].Site.Method == m {
				retOwned[o] = true
			}
		}
	}
	return global, stored, retOwned, nil
}

// consumption holds the interprocedural value-consumption summaries: per
// method, which parameter slots flow into a consumer (a predicate or a
// native call), and whether the method's return value is consumed by some
// caller. Like the rest of the analysis the flow is SSA-precise — the
// slicer's slot-level forward slices smear consumption witnesses across
// unrelated values whenever the front end reuses a local slot.
type consumption struct {
	r         *Result
	paramCons map[*ir.Method][]bool
	retCons   map[*ir.Method]bool
	// round numbers the consumption rounds; methodFlow.consumed holds one
	// method's verdicts for the round that computed them.
	round uint32
}

// solveConsumption saturates the summaries: both maps only grow, and the
// consumed values are monotone in them, so iterating to a fixed point
// yields the least solution. A round marks each method's consumed values
// once, with the summaries as they stood when it reached the method; the
// round that changes nothing marks them all from the final summaries.
func (r *Result) solveConsumption(ctx context.Context) (*consumption, error) {
	c := &consumption{
		r:         r,
		paramCons: make(map[*ir.Method][]bool),
		retCons:   make(map[*ir.Method]bool),
	}
	methods := r.An.CG.Methods()
	for _, m := range methods {
		c.paramCons[m] = make([]bool, m.Params)
	}
	for changed := true; changed; {
		changed = false
		c.round++
		for _, m := range methods {
			mf := r.az.flow(m)
			f := mf.f
			c.mark(mf)
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != ir.OpCall {
					continue
				}
				dv := f.DefOf[pc]
				if dv == ssa.None || !c.consumed(mf, dv) {
					continue
				}
				for _, t := range r.An.CG.Targets(in) {
					if !c.retCons[t] {
						c.retCons[t] = true
						changed = true
					}
				}
			}
			pc := c.paramCons[m]
			for v := 0; v < f.NumVals(); v++ {
				val := &f.Vals[v]
				if val.Kind != ssa.VParam || val.Slot >= len(pc) || pc[val.Slot] {
					continue
				}
				if c.consumed(mf, ssa.ValID(v)) {
					pc[val.Slot] = true
					changed = true
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// consumed reports whether v's transitive SSA uses — through moves, phis,
// arithmetic, calls (into consuming parameter slots), and returns (into
// consuming callers) — reach a predicate or a native consumer, as of the
// last round that marked v's method.
func (c *consumption) consumed(mf *methodFlow, v ssa.ValID) bool {
	return mf.consRound == c.round && mf.consumed[v] == c.round
}

// mark computes, once per round, every consumed value of mf's method, in
// one backward walk: the operands of each consumer are consumed, and so is
// everything that flows into a consumed value. Heap writes stop the flow,
// mirroring the dynamic benefit traversal's stopping rule.
func (c *consumption) mark(mf *methodFlow) {
	r := c.round
	if mf.consRound == r {
		return
	}
	mf.consRound = r
	if mf.consumed == nil {
		mf.consumed = make([]uint32, mf.f.NumVals())
	}
	m, f := mf.m, mf.f
	var work []ssa.ValID
	add := func(v ssa.ValID) {
		if v != ssa.None && mf.consumed[v] != r {
			mf.consumed[v] = r
			work = append(work, v)
		}
	}
	for pc := range m.Code {
		ops := f.Operands[pc]
		in := &m.Code[pc]
		switch in.Op {
		case ir.OpIf, ir.OpNative:
			for _, v := range ops {
				add(v)
			}
		case ir.OpCall:
			ts := c.r.An.CG.Targets(in)
			for i, v := range ops {
				for _, t := range ts {
					if pc := c.paramCons[t]; i < len(pc) && pc[i] {
						add(v)
						break
					}
				}
			}
		case ir.OpReturn:
			if c.retCons[m] {
				for _, v := range ops {
					add(v)
				}
			}
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		val := &f.Vals[v]
		switch val.Kind {
		case ssa.VPhi:
			for _, a := range val.Args {
				add(a)
			}
		case ssa.VInstr:
			switch m.Code[val.PC].Op {
			case ir.OpMove, ir.OpBin, ir.OpNeg, ir.OpNot, ir.OpArrayLen:
				for _, o := range f.Operands[val.PC] {
					add(o)
				}
			}
		}
	}
}

// region derives the lifetime region from the escape state and the extent
// of the allocating frame: an arg-escaping object allocated in the entry
// method can only be captured by structures rooted in the entry frame,
// which lives for the whole run.
func (r *Result) region(si *SiteInfo) Region {
	switch si.State {
	case GlobalEscape:
		return LongLived
	case ArgEscape:
		if si.Site.Method == r.An.Prog.Main {
			return LongLived
		}
		return ConfinedToRequest
	default:
		return ConfinedToMethod
	}
}

// ssaFacts computes the SSA span of the allocated reference inside its
// allocating method: the last transitive use (through moves and phis) and,
// for a no-escape site allocated inside a loop, whether every use stays in
// the allocating loop's body — the iteration-confinement fact behind the
// confined-alloc-in-loop lint. The walk visits each value of the span once,
// marking it with a fresh epoch of the method's one visited array.
func (r *Result) ssaFacts(si *SiteInfo) {
	m := si.Site.Method
	mf := r.az.flow(m)
	f := mf.f
	def := f.DefOf[si.Site.PC]
	if def == ssa.None {
		return
	}
	if mf.forest == nil {
		// Only the loops' blocks are read, not their trip counts, so the
		// forest needs no constant propagation.
		mf.forest = ssa.BuildForest(f, nil)
		mf.seen = make([]uint32, f.NumVals())
	}
	mf.epoch++
	li := mf.forest.LoopOf[f.CFG.BlockOf[si.Site.PC]]
	inLoopBody := func(b int) bool {
		if li < 0 {
			return false
		}
		body := mf.forest.Loops[li].Blocks // ascending
		k := sort.SearchInts(body, b)
		return k < len(body) && body[k] == b
	}

	confined := li >= 0
	lastUse := -1
	work := []ssa.ValID{def}
	mf.seen[def] = mf.epoch
	visit := func(v ssa.ValID) {
		if mf.seen[v] != mf.epoch {
			mf.seen[v] = mf.epoch
			work = append(work, v)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range f.Uses(v) {
			if u.IsPhi() {
				if !inLoopBody(f.Vals[u.Phi].Block) {
					confined = false
				}
				visit(u.Phi)
				continue
			}
			if u.PC > lastUse {
				lastUse = u.PC
			}
			if !inLoopBody(f.CFG.BlockOf[u.PC]) {
				confined = false
			}
			if m.Code[u.PC].Op == ir.OpMove {
				if d := f.DefOf[u.PC]; d != ssa.None {
					visit(d)
				}
			}
		}
	}
	si.LastUse = lastUse
	si.InLoop = si.State == NoEscape && li >= 0 && confined
}

// indexSiteLoads maps each allocation site to the heap loads whose base may
// alias it, using the SSA-resolved base sets.
func (r *Result) indexSiteLoads() map[int][]*ir.Instr {
	out := make(map[int][]*ir.Instr)
	seen := make(map[int]bool)
	for _, m := range r.An.CG.Methods() {
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != ir.OpLoadField && in.Op != ir.OpALoad {
				continue
			}
			clear(seen)
			for o := range r.az.loadBases[in] {
				site := r.An.PT.Objects[o].Site.AllocSite
				if !seen[site] {
					seen[site] = true
					out[site] = append(out[site], in)
				}
			}
		}
	}
	return out
}

// copiedOut reports whether any value loaded out of the site flows, through
// SSA moves, phis, and arithmetic within the loading method, into the value
// operand of a store whose base is a different structure (or a static
// field) — the copy-out leg of the copy-chain shape.
func (r *Result) copiedOut(si *SiteInfo, loads []*ir.Instr) bool {
	for _, ld := range loads {
		mf := r.az.flow(ld.Method)
		def := mf.f.DefOf[ld.PC]
		if def == ssa.None {
			continue
		}
		switch s := r.sinks(mf)[def]; s {
		case noStore:
		case manyStores:
			return true
		default:
			if int(s) != si.Site.AllocSite {
				return true
			}
		}
	}
	return false
}

// The store summary of a value: the join, over every store its value may
// flow into (through moves, phis and arithmetic), of the allocation sites
// whose structure the store writes. noStore and manyStores bracket the
// lattice; one site in between is its allocation-site index. A static
// store, or stores into two different sites, is manyStores: some store is
// then foreign to every site.
const (
	noStore    int32 = -1
	manyStores int32 = -2
)

func joinStores(a, b int32) int32 {
	switch {
	case a == noStore || a == b:
		return b
	case b == noStore:
		return a
	}
	return manyStores
}

// sinks computes, once per method, every value's store summary: seeded at
// the stored-value operand of each store, then joined backwards along the
// value flow. A value's summary rises at most twice, so the walk is linear
// in the method's size.
func (r *Result) sinks(mf *methodFlow) []int32 {
	if mf.sink != nil {
		return mf.sink
	}
	m, f := mf.m, mf.f
	sink := make([]int32, f.NumVals())
	for v := range sink {
		sink[v] = noStore
	}
	var work []ssa.ValID
	raise := func(v ssa.ValID, s int32) {
		if j := joinStores(sink[v], s); j != sink[v] {
			sink[v] = j
			work = append(work, v)
		}
	}
	for pc := range m.Code {
		ops := f.Operands[pc]
		if len(ops) == 0 {
			continue
		}
		switch m.Code[pc].Op {
		case ir.OpStoreStatic:
			raise(ops[0], manyStores)
		case ir.OpStoreField, ir.OpAStore:
			// Only the stored value counts: operand 1 of a field store,
			// operand 2 of an array store (operand 1 is its index).
			val := ops[len(ops)-1]
			s := noStore
			for o := range r.az.operandObjs(mf, pc, 0) {
				s = joinStores(s, int32(r.An.PT.Objects[o].Site.AllocSite))
			}
			if s != noStore {
				raise(val, s)
			}
		}
	}
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		val := &f.Vals[w]
		switch val.Kind {
		case ssa.VPhi:
			for _, a := range val.Args {
				if a != ssa.None {
					raise(a, sink[w])
				}
			}
		case ssa.VInstr:
			switch m.Code[val.PC].Op {
			case ir.OpMove, ir.OpBin, ir.OpNeg, ir.OpNot:
				for _, o := range f.Operands[val.PC] {
					raise(o, sink[w])
				}
			}
		}
	}
	mf.sink = sink
	return sink
}

// Site returns the audit record of one allocation site, or nil when the
// site is statically unreachable.
func (r *Result) Site(allocSite int) *SiteInfo {
	idx, ok := r.bySite[allocSite]
	if !ok {
		return nil
	}
	return &r.Sites[idx]
}

// Ranked returns the sites in audit order: write-only sites first, then by
// score descending, ties broken by allocation-site index so the order is
// deterministic.
func (r *Result) Ranked() []*SiteInfo {
	out := make([]*SiteInfo, len(r.Sites))
	for i := range r.Sites {
		out[i] = &r.Sites[i]
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.WriteOnly() != b.WriteOnly() {
			return a.WriteOnly()
		}
		if ra, rb := a.Score(), b.Score(); ra != rb {
			return ra > rb
		}
		return a.Site.AllocSite < b.Site.AllocSite
	})
	return out
}

// SiteName renders an allocation site the way the slice report names it.
func (r *Result) SiteName(si *SiteInfo) string {
	in := si.Site
	return fmt.Sprintf("site#%d(%s@%s:%d)", in.AllocSite, allocTypeName(in), in.Method.QualifiedName(), in.PC)
}

func allocTypeName(site *ir.Instr) string {
	if site.Op == ir.OpNew {
		return site.Class.Name
	}
	return site.Elem.String() + "[]"
}

// Report renders the deterministic audit report: lattice and lifetime
// histograms, shape counts, and the top sites by static cost/benefit.
func (r *Result) Report(top int) string {
	var b strings.Builder
	objctx := "off"
	if r.An.Cfg.ObjCtx {
		objctx = "on"
	}
	fmt.Fprintf(&b, "static audit (mode=%s, objctx=%s)\n", r.An.CG.Mode, objctx)

	var states [3]int
	var regions [3]int
	chains, looped := 0, 0
	for i := range r.Sites {
		si := &r.Sites[i]
		states[si.State]++
		regions[si.Region]++
		if si.CopyChain {
			chains++
		}
		if si.InLoop {
			looped++
		}
	}
	fmt.Fprintf(&b, "  %d reachable allocation sites: %d no-escape, %d arg-escape, %d global-escape\n",
		len(r.Sites), states[NoEscape], states[ArgEscape], states[GlobalEscape])
	fmt.Fprintf(&b, "  lifetime: %d confined-to-method, %d confined-to-request, %d long-lived\n",
		regions[ConfinedToMethod], regions[ConfinedToRequest], regions[LongLived])
	fmt.Fprintf(&b, "  shapes: %d copy-chain, %d loop-confined\n", chains, looped)

	ranked := r.Ranked()
	if top > len(ranked) {
		top = len(ranked)
	}
	fmt.Fprintf(&b, "  top %d sites by static cost/benefit:\n", top)
	for i := 0; i < top; i++ {
		si := ranked[i]
		tags := ""
		if si.WriteOnly() {
			tags += " write-only"
		}
		if si.Consumed {
			tags += " consumed"
		}
		if si.CopyChain {
			tags += " copy-chain"
		}
		if si.InLoop {
			tags += " loop-confined"
		}
		fmt.Fprintf(&b, "  %3d. %-52s %-13s %-19s wcost=%-9.4g wbenefit=%-9.4g stores=%d loads=%d%s\n",
			i+1, r.SiteName(si), si.State, si.Region, si.WCost, si.WBenefit, si.Stores, si.Loads, tags)
	}
	return b.String()
}
