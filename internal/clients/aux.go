package clients

import (
	"fmt"
	"sort"
	"strings"

	"lowutil/internal/costben"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/profiler"
)

// ---- Method-level relative cost ----

// MethodCostTracker wraps the cost-benefit profiler and additionally records
// the dependence node of every returned value, keyed by the returning
// method. MethodCosts then answers "how much stack work does this method do
// to produce its return value, relative to its inputs (heap reads, values
// from callees, and parameters)?" — one of the §3.2 client analyses.
type MethodCostTracker struct {
	*profiler.Profiler
	retNodes map[*ir.Method]map[*depgraph.Node]struct{}
}

// NewMethodCostTracker wraps p.
func NewMethodCostTracker(p *profiler.Profiler) *MethodCostTracker {
	return &MethodCostTracker{
		Profiler: p,
		retNodes: make(map[*ir.Method]map[*depgraph.Node]struct{}),
	}
}

// Detach implements interp.Detacher by declining: the profiler's consumer
// would replay the run onto the bare profiler, past the BeforeReturn that
// records return values here, so a tracked run stays synchronous.
func (mc *MethodCostTracker) Detach([]*interp.Frame) (interp.Tracer, func()) { return nil, nil }

// BeforeReturn implements interp.Tracer, recording return-value nodes.
func (mc *MethodCostTracker) BeforeReturn(in *ir.Instr, fr *interp.Frame) {
	mc.Profiler.BeforeReturn(in, fr)
	if !in.HasA {
		return
	}
	// The profiler just staged the return value's node for the caller to
	// pop; read it there instead of re-deriving the popped frame's shadow.
	if n := mc.Profiler.StagedReturn(); n != nil {
		set := mc.retNodes[in.Method]
		if set == nil {
			set = make(map[*depgraph.Node]struct{}, 4)
			mc.retNodes[in.Method] = set
		}
		set[n] = struct{}{}
	}
}

// MethodCost is the report entry for one method.
type MethodCost struct {
	Method *ir.Method
	// RelCost is the mean, over returned values, of the frequency-weighted
	// work done by the method's own instructions to produce the value
	// (stopping at heap reads, parameters, and callee-produced values).
	RelCost float64
	// Returns is how many distinct return-value abstractions were seen.
	Returns int
}

// MethodCosts computes the method-level relative cost report, most
// expensive first.
func (mc *MethodCostTracker) MethodCosts() []MethodCost {
	var out []MethodCost
	for m, set := range mc.retNodes {
		var total int64
		for n := range set {
			total += relCostWithin(n, m)
		}
		out = append(out, MethodCost{
			Method:  m,
			RelCost: float64(total) / float64(len(set)),
			Returns: len(set),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RelCost != out[j].RelCost {
			return out[i].RelCost > out[j].RelCost
		}
		return out[i].Method.QualifiedName() < out[j].Method.QualifiedName()
	})
	return out
}

// relCostWithin is an HRAC-style backward sum restricted to nodes of method
// m: heap reads and nodes of other methods terminate the walk uncounted.
func relCostWithin(seed *depgraph.Node, m *ir.Method) int64 {
	if seed == nil {
		return 0
	}
	sum := seed.Freq()
	visited := map[*depgraph.Node]struct{}{seed: {}}
	stack := []*depgraph.Node{seed}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur.Deps(func(d *depgraph.Node) {
			if _, ok := visited[d]; ok {
				return
			}
			visited[d] = struct{}{}
			if d.ReadsHeap() || d.In.Method != m {
				return
			}
			sum += d.Freq()
			stack = append(stack, d)
		})
	}
	return sum
}

// ---- Rewritten-before-read detection ----

// RewriteTracker finds heap locations that are written again before the
// previous value is ever read — the derby FileContainer symptom ("it is
// written much more frequently (with the same data) than being read").
// Aggregation is per (allocation site, field).
type RewriteTracker struct {
	interp.NopTracer
	// counts[key] = {writes, silentOverwrites, reads}
	counts map[rwKey]*rwCounts
}

type rwKey struct {
	site  int // allocation site of the accessed object
	field int // field ID, or depgraph.ElemField
}

type rwCounts struct {
	Writes     int64
	Overwrites int64 // writes whose previous value was never read
	Reads      int64
}

type rwObjShadow struct {
	unread []bool // per slot: was the last write never read?
}

// NewRewriteTracker returns a tracker.
func NewRewriteTracker(prog *ir.Program) *RewriteTracker {
	return &RewriteTracker{counts: make(map[rwKey]*rwCounts)}
}

func (rw *RewriteTracker) cnt(key rwKey) *rwCounts {
	c := rw.counts[key]
	if c == nil {
		c = &rwCounts{}
		rw.counts[key] = c
	}
	return c
}

func (rw *RewriteTracker) oshadow(o *interp.Object) *rwObjShadow {
	if os, ok := o.Shadow.(*rwObjShadow); ok {
		return os
	}
	n := len(o.Fields)
	if o.IsArray() {
		n = len(o.Elems)
	}
	os := &rwObjShadow{unread: make([]bool, n)}
	o.Shadow = os
	return os
}

// write records a write to o's field or element slot, aggregated under
// field.
func (rw *RewriteTracker) write(o *interp.Object, field, slot int) {
	os := rw.oshadow(o)
	c := rw.cnt(rwKey{o.Site, field})
	c.Writes++
	if os.unread[slot] {
		c.Overwrites++
	}
	os.unread[slot] = true
}

// read records a read of o's field or element slot, aggregated under
// field.
func (rw *RewriteTracker) read(o *interp.Object, field, slot int) {
	os := rw.oshadow(o)
	rw.cnt(rwKey{o.Site, field}).Reads++
	os.unread[slot] = false
}

// StoreField implements interp.Tracer.
func (rw *RewriteTracker) StoreField(in *ir.Instr, _ *interp.Frame, base *interp.Object, _ interp.Value) {
	rw.write(base, in.Field.ID, in.Field.Slot)
}

// LoadField implements interp.Tracer.
func (rw *RewriteTracker) LoadField(in *ir.Instr, _ *interp.Frame, base *interp.Object) {
	rw.read(base, in.Field.ID, in.Field.Slot)
}

// StoreElem implements interp.Tracer.
func (rw *RewriteTracker) StoreElem(_ *ir.Instr, _ *interp.Frame, arr *interp.Object, idx int64, _ interp.Value) {
	rw.write(arr, depgraph.ElemField, int(idx))
}

// LoadElem implements interp.Tracer.
func (rw *RewriteTracker) LoadElem(_ *ir.Instr, _ *interp.Frame, arr *interp.Object, idx int64) {
	rw.read(arr, depgraph.ElemField, int(idx))
}

// RewriteReport is one suspicious location.
type RewriteReport struct {
	Site       int
	Field      int
	Writes     int64
	Overwrites int64
	Reads      int64
}

// OverwriteRatio is the fraction of writes that were never read.
func (r RewriteReport) OverwriteRatio() float64 {
	if r.Writes == 0 {
		return 0
	}
	return float64(r.Overwrites) / float64(r.Writes)
}

func (r RewriteReport) String() string {
	f := fmt.Sprintf("f%d", r.Field)
	if r.Field == depgraph.ElemField {
		f = "ELM"
	}
	return fmt.Sprintf("O%d.%s: %d writes, %d silent overwrites (%.0f%%), %d reads",
		r.Site, f, r.Writes, r.Overwrites, 100*r.OverwriteRatio(), r.Reads)
}

// Report returns locations ordered by silent-overwrite count.
func (rw *RewriteTracker) Report(minWrites int64) []RewriteReport {
	var out []RewriteReport
	for k, c := range rw.counts {
		if c.Writes < minWrites {
			continue
		}
		out = append(out, RewriteReport{Site: k.site, Field: k.field,
			Writes: c.Writes, Overwrites: c.Overwrites, Reads: c.Reads})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overwrites != out[j].Overwrites {
			return out[i].Overwrites > out[j].Overwrites
		}
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		// Without the field tiebreak, two fields of the same site with equal
		// overwrite counts land in map-iteration order.
		return out[i].Field < out[j].Field
	})
	return out
}

// ---- Always-true / always-false predicates ----

// PredicateTracker counts branch outcomes per if instruction and reports
// predicates that always evaluate the same way — the bloat Assert.isTrue
// symptom ("such conditions can rarely evaluate to true, and there is no
// benefit in constructing these objects").
type PredicateTracker struct {
	interp.NopTracer
	taken    []int64
	notTaken []int64
	prog     *ir.Program
}

// NewPredicateTracker returns a tracker for prog.
func NewPredicateTracker(prog *ir.Program) *PredicateTracker {
	n := prog.NumInstrs()
	return &PredicateTracker{taken: make([]int64, n), notTaken: make([]int64, n), prog: prog}
}

// Branch implements interp.Tracer.
func (pt *PredicateTracker) Branch(in *ir.Instr, _ *interp.Frame, taken bool) {
	if taken {
		pt.taken[in.ID]++
	} else {
		pt.notTaken[in.ID]++
	}
}

// ConstantPredicate is a predicate with a single observed outcome.
type ConstantPredicate struct {
	In    *ir.Instr
	Taken bool // the constant outcome
	Count int64
}

func (c ConstantPredicate) String() string {
	return fmt.Sprintf("%s pc %d (%s): always %v ×%d",
		c.In.Method.QualifiedName(), c.In.PC, c.In, c.Taken, c.Count)
}

// Constants returns predicates executed at least minExec times with a single
// outcome, by descending execution count.
func (pt *PredicateTracker) Constants(minExec int64) []ConstantPredicate {
	var out []ConstantPredicate
	for _, in := range pt.prog.Instrs {
		if in.Op != ir.OpIf {
			continue
		}
		t, n := pt.taken[in.ID], pt.notTaken[in.ID]
		switch {
		case t >= minExec && n == 0:
			out = append(out, ConstantPredicate{In: in, Taken: true, Count: t})
		case n >= minExec && t == 0:
			out = append(out, ConstantPredicate{In: in, Taken: false, Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].In.ID < out[j].In.ID
	})
	return out
}

// ---- Collection ranking ----

// IsContainerClass is the default predicate for collection ranking: a class
// with an array-typed field, or whose name suggests a container.
func IsContainerClass(c *ir.Class) bool {
	for cl := c; cl != nil; cl = cl.Super {
		for _, f := range cl.Fields {
			if f.Type.IsArray() {
				return true
			}
		}
	}
	name := c.Name
	for _, frag := range []string{"List", "Map", "Set", "Table", "Vector", "Queue", "Stack", "Buffer"} {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

// RankCollections ranks container allocation sites by cost-benefit rate —
// the §3.2 client that "searches for problematic collections by ranking
// collection objects based on their RAC/RAB rates".
func RankCollections(a *costben.Analysis, height int, isContainer func(*ir.Class) bool) []*costben.SiteReport {
	if isContainer == nil {
		isContainer = IsContainerClass
	}
	all := a.RankBySite(height)
	var out []*costben.SiteReport
	for _, r := range all {
		if r.Site.Op == ir.OpNew && isContainer(r.Site.Class) {
			out = append(out, r)
		}
	}
	return out
}
