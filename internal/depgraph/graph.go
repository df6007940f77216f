// Package depgraph implements the abstract thin data dependence graph of the
// paper (Definition 2) and the traversals the cost-benefit analyses and
// client analyses run over it.
//
// A node is a static instruction annotated with an element d of a bounded
// abstract domain D; for the cost-benefit client, d is the encoded
// object-context slot h(c) ∈ [0, s). Other clients reuse the same graph
// structure with their own domains (null/not-null, typestate, copy origins),
// and the unabstracted baseline uses the occurrence index itself — which is
// exactly what makes it unbounded.
//
// Edges are stored in the def-use orientation used by the inference rules of
// Figure 4: an edge a → b ("a depends on b") means an instance of a read a
// location whose last writer was an instance of b. Both directions are kept
// so that cost (backward) and benefit (forward) traversals are linear.
//
// The representation is dense: nodes are interned through a flat
// (instruction × domain-element) index with an arena for node records and
// append-only edge/location lists, so the online profiler does no map
// operations on its hot path. Every graph-level query (Nodes, Locs,
// StoresOf, LoadsOf, FieldsOf, Children, Encode, the SCC condensation)
// answers from the immutable CSR Snapshot that Freeze builds once and caches
// until the next mutation (freeze.go); only Freeze and the per-node edge
// accessors read the build-phase tables. The original map-backed
// representation survives only as a model in the package tests
// (model_test.go), which drives both through the same mutation sequences
// and compares every read.
package depgraph

import (
	"cmp"
	"fmt"
	"sort"
	"unsafe"

	"lowutil/internal/ir"
)

// NoContext is the D value of consumer (predicate/native) nodes, which the
// paper leaves context-free.
const NoContext = -1

// ElemField is the pseudo field ID for array element locations (the paper's
// O.ELM).
const ElemField = -1

// defaultMaxD is the largest domain element covered by the dense direct
// index when the caller does not size the graph; it matches the facade's
// default context-slot count (d ∈ [NoContext, 15]).
const defaultMaxD = 15

// arenaChunk caps the node records allocated per arena chunk; chunks grow
// geometrically from arenaChunkMin so small graphs don't pay for a full
// chunk up front.
const (
	arenaChunkMin = 16
	arenaChunk    = 256
)

// EffectKind classifies a node's heap effect.
type EffectKind uint8

const (
	// EffNone: the node touches no heap location.
	EffNone EffectKind = iota
	// EffAlloc: the node allocates an object ("underlined", type U).
	EffAlloc
	// EffLoad: the node reads a heap location ("circled", type C).
	EffLoad
	// EffStore: the node writes a heap location ("boxed", type B).
	EffStore
)

func (e EffectKind) String() string {
	switch e {
	case EffAlloc:
		return "U"
	case EffLoad:
		return "C"
	case EffStore:
		return "B"
	default:
		return "-"
	}
}

// Loc identifies an abstract heap location O^d.f: the allocation node of the
// base object plus a field. Alloc == nil means a static field, with Field
// holding the static slot. Field == ElemField means the array-element
// pseudo-field.
type Loc struct {
	Alloc *Node
	Field int
}

func (l Loc) String() string {
	switch {
	case l.Alloc == nil:
		return fmt.Sprintf("static#%d", l.Field)
	case l.Field == ElemField:
		return l.Alloc.String() + ".ELM"
	default:
		return fmt.Sprintf("%s.f%d", l.Alloc, l.Field)
	}
}

// locRef is a node-side record of one abstract location the node accessed,
// with the graph's dense index for it. The per-node lists are almost always
// length one (a store instruction writes one abstract location per context),
// so a linear scan replaces a per-event map probe.
type locRef struct {
	loc Loc
	li  int32
}

// Ref is a compact handle for a node within its graph: the intern ID plus
// one, with 0 standing for "no node". Shadow locations (frame slots, object
// fields, statics) store Refs instead of *Node so that the per-event shadow
// updates are scalar stores — a pointer store into the heap pays the GC
// hybrid write barrier whenever the collector is marking, a Ref store never
// does. Resolve with Graph.At.
type Ref int32

// NilRef is the Ref of "no node" (the zero value).
const NilRef Ref = 0

// Node is an abstract instruction instance: a static instruction annotated
// with an abstract-domain element.
type Node struct {
	In *ir.Instr
	// D is the abstract-domain element (context slot for Gcost).
	D int

	// g is the owning graph; frequencies and edge sets live in dense
	// id-indexed tables on the graph, not in the node record, so the
	// profiler's per-event updates touch hot flat arrays instead of
	// scattered records. Accessors resolve through g.
	g *Graph

	// Eff describes the node's heap effect; EffLoc is the location touched
	// (meaningful for EffLoad/EffStore; for EffAlloc, EffLoc.Alloc is the
	// node itself).
	Eff    EffectKind
	EffLoc Loc

	// id is the intern order of the node within its graph; edge-set hashing
	// and the frozen snapshot's dense permutation key off it.
	id int32

	// storeLocs/loadLocs record which locations this node was registered
	// as storing/loading (the inverse of the graph's per-location lists,
	// used for O(1) duplicate suppression).
	storeLocs []locRef
	loadLocs  []locRef
}

// Freq returns the number of concrete instruction instances mapped to this
// node. Storage is the graph's dense frequency table, which the profiler
// increments through its cached table view.
func (n *Node) Freq() int64 { return n.g.freq[n.id] }

// SetFreq overwrites the node's frequency (deserialization, tests).
func (n *Node) SetFreq(v int64) { n.g.freq[n.id] = v }

// IsConsumer reports whether the node is a predicate or native consumer.
func (n *Node) IsConsumer() bool { return n.In.IsConsumer() }

// IsPredicate reports whether the node is a predicate consumer.
func (n *Node) IsPredicate() bool { return n.In.IsPredicate() }

// ReadsHeap reports whether the node reads a static or object field or
// array element.
func (n *Node) ReadsHeap() bool { return n.Eff == EffLoad }

// WritesHeap reports whether the node writes one.
func (n *Node) WritesHeap() bool { return n.Eff == EffStore }

// NumDeps returns the backward (use→def) degree.
func (n *Node) NumDeps() int { return n.g.depSets[n.id].len() }

// NumUses returns the forward (def→use) degree.
func (n *Node) NumUses() int { return n.g.useSets[n.id].len() }

// Deps calls f for every node this node depends on.
func (n *Node) Deps(f func(*Node)) { n.g.depSets[n.id].each(n.g.all, f) }

// Uses calls f for every node that uses this node's values.
func (n *Node) Uses(f func(*Node)) { n.g.useSets[n.id].each(n.g.all, f) }

// RefEdges calls f for every reference edge out of this (store) node.
func (n *Node) RefEdges(f func(*Node)) { n.g.refSets[n.id].each(n.g.all, f) }

// Ref returns the node's compact handle for shadow storage.
func (n *Node) Ref() Ref { return Ref(n.id + 1) }

func (n *Node) String() string {
	if n.D == NoContext {
		return fmt.Sprintf("i%d°", n.In.ID)
	}
	return fmt.Sprintf("i%d^%d", n.In.ID, n.D)
}

type nodeKey struct {
	instr int
	d     int
}

// locEntry is the dense graph's per-location record: append-only store/load
// node-ID lists (deduplicated through the node-side locRef lists) and the
// points-to children set. accessed distinguishes locations that were ever
// loaded or stored from children-only entries, which Locs and FieldsOf
// skip.
type locEntry struct {
	loc      Loc
	stores   []int32
	loads    []int32
	children nodeSet
	accessed bool
}

// Graph is a dependence graph under construction or analysis.
type Graph struct {
	Prog *ir.Program

	// width is the dense direct-index row width: domain elements in
	// [-1, width-2] hit the flat index, everything else the overflow map.
	width int

	// all lists every node in intern order; a node's id indexes this slice.
	all []*Node
	// freq holds node frequencies by intern id — a flat table so the
	// profiler's per-event increment is one dense array write rather than a
	// read-modify-write on a scattered node record.
	freq []int64
	// dep0 memoizes, by intern id, the first dep edge added to each node —
	// the one-word probe AddDepRefs checks before falling into the full
	// edge-set dedup. Loops re-add the same dep every iteration, and most
	// value instructions have exactly one dep, so this catches nearly all
	// re-adds with a single compare.
	dep0 []Ref
	// depSets/useSets/refSets hold the edge sets by intern id, keeping node
	// records read-mostly while profiling (better GC mark locality too).
	depSets []nodeSet
	useSets []nodeSet
	refSets []nodeSet
	// arena is the current node-record chunk; appending never reallocates
	// (chunks are replaced when full), so node pointers are stable.
	arena []Node

	// Dense intern index: idx[in.ID*width + d+1] holds intern id + 1, with 0
	// meaning absent. overflow catches domain elements outside the direct
	// range (the unabstracted baseline's occurrence indices, client
	// encodings).
	idx      []int32
	overflow map[nodeKey]*Node

	// Dense location tables.
	locEntries []locEntry
	locIDs     map[Loc]int32
	lastLoc    Loc   // one-entry intern cache: consecutive events
	lastLocID  int32 // usually touch the same abstract location
	haveLast   bool

	// edge counters (deduplicated)
	numDep int
	numRef int

	// frozen caches the CSR snapshot of the graph; any mutation through the
	// Graph API invalidates it. See Freeze.
	frozen *Snapshot
}

// New returns an empty dense graph over prog sized for the default context
// domain.
func New(prog *ir.Program) *Graph { return NewSized(prog, defaultMaxD) }

// NewSized returns an empty graph whose dense direct index covers domain
// elements d ∈ [NoContext, maxD]; elements outside the range fall back to an
// overflow map.
func NewSized(prog *ir.Program, maxD int) *Graph {
	if maxD < 0 {
		maxD = 0
	}
	width := maxD + 2
	return &Graph{
		Prog:     prog,
		width:    width,
		idx:      make([]int32, prog.NumInstrs()*width),
		overflow: make(map[nodeKey]*Node),
		locIDs:   make(map[Loc]int32),
	}
}

// NumNodes returns the number of nodes (|V| of Table 1's #N column).
func (g *Graph) NumNodes() int { return len(g.all) }

// NumDepEdges returns the number of distinct def-use edges (#E).
func (g *Graph) NumDepEdges() int { return g.numDep }

// NumRefEdges returns the number of distinct reference edges.
func (g *Graph) NumRefEdges() int { return g.numRef }

// newNode appends a node record to the arena and registers it in the intern
// list. Chunked allocation keeps a profile run at O(nodes/arenaChunk)
// allocations instead of one per node.
func (g *Graph) newNode(in *ir.Instr, d int) *Node {
	if len(g.arena) == cap(g.arena) {
		c := cap(g.arena) * 2
		if c < arenaChunkMin {
			c = arenaChunkMin
		}
		if c > arenaChunk {
			c = arenaChunk
		}
		g.arena = make([]Node, 0, c)
	}
	g.arena = append(g.arena, Node{In: in, D: d, id: int32(len(g.all)), g: g})
	n := &g.arena[len(g.arena)-1]
	g.all = append(g.all, n)
	g.freq = append(g.freq, 0)
	g.dep0 = append(g.dep0, 0)
	g.depSets = append(g.depSets, nodeSet{})
	g.useSets = append(g.useSets, nodeSet{})
	g.refSets = append(g.refSets, nodeSet{})
	return n
}

// At resolves a shadow Ref to its node (nil for NilRef).
func (g *Graph) At(r Ref) *Node {
	if r == 0 {
		return nil
	}
	return g.all[r-1]
}

// Node returns the node for (in, d), creating it if needed. It does not
// touch Freq; call Touch for that.
func (g *Graph) Node(in *ir.Instr, d int) *Node {
	if dd := d + 1; uint(dd) < uint(g.width) {
		slot := &g.idx[in.ID*g.width+dd]
		if *slot != 0 {
			return g.all[*slot-1]
		}
		n := g.newNode(in, d)
		*slot = n.id + 1
		g.Invalidate()
		return n
	}
	k := nodeKey{in.ID, d}
	if n, ok := g.overflow[k]; ok {
		return n
	}
	n := g.newNode(in, d)
	g.overflow[k] = n
	g.Invalidate()
	return n
}

// Lookup returns the node for (in, d) or nil.
func (g *Graph) Lookup(in *ir.Instr, d int) *Node {
	if dd := d + 1; uint(dd) < uint(g.width) {
		if slot := g.idx[in.ID*g.width+dd]; slot != 0 {
			return g.all[slot-1]
		}
		return nil
	}
	return g.overflow[nodeKey{in.ID, d}]
}

// Touch increments the node's frequency and returns it.
func (g *Graph) Touch(in *ir.Instr, d int) *Node {
	n := g.Node(in, d)
	g.freq[n.id]++
	g.Invalidate()
	return n
}

// TouchFast is Touch without the per-event snapshot invalidation: the hot
// profiling path calls it once per traced instruction and flushes the
// invalidation in batch at call boundaries via Invalidate. Callers must
// guarantee an Invalidate (or any mutating API call) happens before the next
// Freeze observes the updated frequencies. The body is the dense direct-index
// hit path, small enough to inline into the profiler's hooks; misses
// take touchSlow.
func (g *Graph) TouchFast(in *ir.Instr, d int) *Node {
	if dd := d + 1; uint(dd) < uint(g.width) {
		if v := g.idx[in.ID*g.width+dd]; v != 0 {
			g.freq[v-1]++
			return g.all[v-1]
		}
	}
	return g.touchSlow(in, d)
}

// touchSlow is the intern-miss path of TouchFast.
func (g *Graph) touchSlow(in *ir.Instr, d int) *Node {
	n := g.Node(in, d)
	g.freq[n.id]++
	return n
}

// DenseTables is a caller-cached view of the dense intern index and
// frequency table, letting the profiler's event loop run the intern hit path
// (one index probe, one frequency increment) fully inlined without a call
// into the graph. Idx[in.ID*Width + d+1] holds intern id + 1 (0 = absent) —
// the same encoding as Ref — and Freq is indexed by intern id. Idx never
// reallocates; Freq grows on intern, so the view must be re-fetched after
// any miss.
type DenseTables struct {
	Idx   []int32
	Freq  []int64
	Width int
}

// DenseTables returns the current dense-table view (see type doc).
func (g *Graph) DenseTables() DenseTables {
	return DenseTables{Idx: g.idx, Freq: g.freq, Width: g.width}
}

// Invalidate drops the cached frozen snapshot so the next Freeze rebuilds
// it. Mutating API calls do this implicitly; TouchFast batches it. The guard
// matters on the hot path: the snapshot is usually already nil while
// profiling, and an unconditional pointer store would pay the GC write
// barrier on every dependence edge and call boundary.
func (g *Graph) Invalidate() {
	if g.frozen != nil {
		g.frozen = nil
	}
}

// AddDep records that 'from' used a value defined by 'to'. Self-loops
// (an instruction instance reading its own previous output) are kept: they
// occur naturally for accumulators under abstraction.
func (g *Graph) AddDep(from, to *Node) {
	if from == nil || to == nil {
		return
	}
	if !g.depSets[from.id].add(to.id) {
		return
	}
	g.useSets[to.id].add(from.id)
	g.numDep++
	g.Invalidate()
}

// AddDepRef is AddDep with the dependency given as a shadow Ref — the form
// the profiler's shadow locations store. Equivalent to
// AddDep(from, g.At(r)); the Ref form avoids materializing the node pointer
// on the hot path.
func (g *Graph) AddDepRef(from *Node, r Ref) {
	if from == nil || r == 0 {
		return
	}
	to := int32(r - 1)
	if !g.depSets[from.id].add(to) {
		return
	}
	g.useSets[to].add(from.id)
	g.numDep++
	g.Invalidate()
}

// AddDepRefs is AddDep with both endpoints given as Refs — the profiler's
// fast path, which works in Refs and never materializes node pointers for
// value-producing events. from must be a valid Ref (obtained from Touch or
// Node); to may be NilRef. Inside a loop the same dep edge is re-added every
// iteration, so the duplicate check is the hot case: the dep0 memo (the
// node's first dep edge, kept in a parallel array) catches it for single-dep
// instrs with one inlined compare; everything else (later members, genuinely
// new edges, NilRef) takes the addDepRefsSlow call. The profiler keeps its
// own per-operand memo in front of this one (profiler.link), so it calls
// here only when an operand's producer changes.
func (g *Graph) AddDepRefs(from, to Ref) {
	if g.dep0[from-1] == to {
		return
	}
	g.addDepRefsSlow(from, to)
}

// addDepRefsSlow records a dep edge that missed the inline dup0 probe.
func (g *Graph) addDepRefsSlow(from, to Ref) {
	if to == 0 {
		return
	}
	f := int32(from - 1)
	added := g.depSets[f].add(int32(to - 1))
	if g.dep0[f] == 0 {
		g.dep0[f] = to
	}
	if !added {
		return
	}
	g.useSets[to-1].add(f)
	g.numDep++
	g.Invalidate()
}

// AddRef records a reference edge from a field-store node to the allocation
// node of the base object.
func (g *Graph) AddRef(store, alloc *Node) {
	if store == nil || alloc == nil {
		return
	}
	if !g.refSets[store.id].add(alloc.id) {
		return
	}
	g.numRef++
	g.Invalidate()
}

// AddRefs is AddRef over Refs, for callers already holding intern IDs.
func (g *Graph) AddRefs(store, alloc Ref) {
	if store == 0 || alloc == 0 {
		return
	}
	if !g.refSets[store-1].add(int32(alloc - 1)) {
		return
	}
	g.numRef++
	g.Invalidate()
}

// locIndex interns loc into the dense location table. The one-entry cache
// makes the common store-then-child event pair (same location twice in a
// row) bypass the map.
func (g *Graph) locIndex(loc Loc) int32 {
	if g.haveLast && loc == g.lastLoc {
		return g.lastLocID
	}
	li, ok := g.locIDs[loc]
	if !ok {
		li = int32(len(g.locEntries))
		g.locEntries = append(g.locEntries, locEntry{loc: loc})
		g.locIDs[loc] = li
	}
	g.lastLoc, g.lastLocID, g.haveLast = loc, li, true
	return li
}

// AddLocStore records that node n wrote abstract location loc.
func (g *Graph) AddLocStore(loc Loc, n *Node) {
	for i := range n.storeLocs {
		if n.storeLocs[i].loc == loc {
			return
		}
	}
	li := g.locIndex(loc)
	n.storeLocs = append(n.storeLocs, locRef{loc, li})
	e := &g.locEntries[li]
	e.stores = append(e.stores, n.id)
	e.accessed = true
	g.Invalidate()
}

// AddLocLoad records that node n read abstract location loc.
func (g *Graph) AddLocLoad(loc Loc, n *Node) {
	for i := range n.loadLocs {
		if n.loadLocs[i].loc == loc {
			return
		}
	}
	li := g.locIndex(loc)
	n.loadLocs = append(n.loadLocs, locRef{loc, li})
	e := &g.locEntries[li]
	e.loads = append(e.loads, n.id)
	e.accessed = true
	g.Invalidate()
}

// nodeLess is the canonical node order: (instruction ID, context slot). The
// frozen snapshot assigns dense IDs in this order, so sorted-by-ID and
// sorted-by-nodeLess iterations agree.
func nodeLess(a, b *Node) bool {
	if a.In.ID != b.In.ID {
		return a.In.ID < b.In.ID
	}
	return a.D < b.D
}

// locCmp orders abstract locations: statics first (by field), then by the
// owning allocation node (nodeLess) and field.
func locCmp(a, b Loc) int {
	switch {
	case a.Alloc == b.Alloc:
		return cmp.Compare(a.Field, b.Field)
	case a.Alloc == nil:
		return -1
	case b.Alloc == nil:
		return 1
	case nodeLess(a.Alloc, b.Alloc):
		return -1
	default:
		return 1
	}
}

// StoresOf calls f for every store node recorded for loc, in canonical node
// order.
func (g *Graph) StoresOf(loc Loc, f func(*Node)) {
	s := g.Freeze()
	if li, ok := s.LocID(loc); ok {
		for _, id := range s.Store[s.StoreStart[li]:s.StoreStart[li+1]] {
			f(s.Nodes[id])
		}
	}
}

// LoadsOf calls f for every load node recorded for loc, in canonical node
// order.
func (g *Graph) LoadsOf(loc Loc, f func(*Node)) {
	s := g.Freeze()
	if li, ok := s.LocID(loc); ok {
		for _, id := range s.Load[s.LoadStart[li]:s.LoadStart[li+1]] {
			f(s.Nodes[id])
		}
	}
}

// FieldsOf calls f for every field (including ElemField) of objects
// allocated at owner that was ever loaded or stored, in ascending field
// order. Statics belong to no allocated object, so owner nil lists nothing.
func (g *Graph) FieldsOf(owner *Node, f func(field int)) {
	s := g.Freeze()
	if oi, ok := s.ID(owner); ok {
		for _, field := range s.OwnerField[s.OwnerFieldStart[oi]:s.OwnerFieldStart[oi+1]] {
			f(int(field))
		}
	}
}

// Locs calls f for every abstract location that was ever loaded or stored,
// in locCmp order.
func (g *Graph) Locs(f func(Loc)) {
	for _, loc := range g.Freeze().Locs {
		f(loc)
	}
}

// AddChild records that location loc held a reference to an object allocated
// at child (a points-to edge used to build object reference trees).
func (g *Graph) AddChild(loc Loc, child *Node) {
	if child == nil {
		return
	}
	li := g.locIndex(loc)
	g.locEntries[li].children.add(child.id)
	g.Invalidate()
}

// Children calls f for every (field, child allocation node) pair recorded
// for objects allocated at owner, ordered by (field, child). Owner nil lists
// the children held in static fields.
func (g *Graph) Children(owner *Node, f func(field int, child *Node)) {
	s := g.Freeze()
	oi, ok := s.ID(owner)
	if owner == nil {
		oi, ok = int32(len(s.Nodes)), true // the static row
	}
	if !ok {
		return
	}
	for k := s.ChildStart[oi]; k < s.ChildStart[oi+1]; k++ {
		f(int(s.ChildField[k]), s.Nodes[s.Child[k]])
	}
}

// Nodes calls f for every node in the graph, ordered by (instruction ID,
// context slot). Deterministic order matters: callers fold node metrics into
// floating-point sums, and float addition is not associative.
func (g *Graph) Nodes(f func(*Node)) {
	for _, n := range g.Freeze().Nodes {
		f(n)
	}
}

// NodesOf returns all nodes of a given static instruction, ordered by
// context slot.
func (g *Graph) NodesOf(in *ir.Instr) []*Node {
	ns := g.Freeze().Nodes
	lo := sort.Search(len(ns), func(i int) bool { return ns[i].In.ID >= in.ID })
	hi := lo
	for hi < len(ns) && ns[hi].In.ID == in.ID {
		hi++
	}
	return append([]*Node(nil), ns[lo:hi]...)
}

// TotalFreq sums node frequencies — the number of concrete instruction
// instances that created dependence-graph activity.
func (g *Graph) TotalFreq() int64 {
	var t int64
	for _, f := range g.freq {
		t += f
	}
	return t
}

// ApproxBytes estimates the memory footprint of the graph in bytes, the
// analogue of Table 1's M(Mb) column. The model follows the dense layout —
// arena node records, the flat intern index, append-only edge and location
// lists with their dedup-table slack — and is computed from entry counts
// alone, so it does not depend on how far any table's capacity has grown.
func (g *Graph) ApproxBytes() int64 { return g.footprint().bytes() }

// footprint holds the entry counts ApproxBytes charges for.
type footprint struct {
	nodes, indexSlots, overflow, depEdges, refEdges int
	locs, stores, loads, children                   int
}

// footprint counts the graph's entries.
func (g *Graph) footprint() footprint {
	f := footprint{
		nodes:      len(g.all),
		indexSlots: len(g.idx),
		overflow:   len(g.overflow),
		depEdges:   g.numDep,
		refEdges:   g.numRef,
		locs:       len(g.locEntries),
	}
	for i := range g.locEntries {
		e := &g.locEntries[i]
		f.stores += len(e.stores)
		f.loads += len(e.loads)
		f.children += e.children.len()
	}
	return f
}

func (f footprint) bytes() int64 {
	var (
		nodeBytes = int64(unsafe.Sizeof(Node{}))
		setBytes  = int64(unsafe.Sizeof(nodeSet{}))
		locBytes  = int64(unsafe.Sizeof(locEntry{}))
		locRefSz  = int64(unsafe.Sizeof(locRef{}))
	)
	const (
		listEntry  = 4 // one int32 edge-list slot
		tableSlack = 4 // amortized dedup-table share per spilled entry
		mapEntry   = 48
		ptrEntry   = 8
	)

	// Per node: the arena record plus its slots in the parallel tables —
	// the intern-list pointer, the frequency word, the dep0 memo, and the
	// three edge-set headers. The parallel tables are append-grown by
	// doubling, so their live capacity (and the bytes a build actually
	// allocates) runs up to 2× the entry count; the factor charges that
	// slack. Arena chunks are replaced, not copied, so node records are
	// charged at size.
	perNode := nodeBytes + 2*(ptrEntry+8+4+3*setBytes)
	b := int64(f.nodes) * perNode
	b += int64(f.indexSlots) * 4 // flat intern index
	b += int64(f.overflow) * mapEntry
	b += int64(f.depEdges) * 2 * (listEntry + tableSlack) // both directions
	b += int64(f.refEdges) * (listEntry + tableSlack)
	b += int64(f.locs) * locBytes
	// Store/load registrations appear twice: an int32 in the per-location
	// list and a locRef in the node-side dedup list.
	b += int64(f.stores+f.loads) * (4 + locRefSz)
	b += int64(f.children) * (listEntry + tableSlack)
	return b
}
