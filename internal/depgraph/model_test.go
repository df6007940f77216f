package depgraph

// mapModel is the map-backed Gcost representation the dense graph replaced,
// kept as a test model: nodes interned through a map keyed by (instruction,
// domain element), edge and location tables as maps of sets. The seeded
// test and the fuzz target below drive a dense Graph and the model through
// the same mutation sequences and compare every read the analyses make.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lowutil/internal/ir"
)

// modelMaxD sizes the dense direct index small, so the domain elements the
// sequences draw ([-3, 7]) land both inside it and in the overflow map.
const modelMaxD = 3

type mNode struct {
	in     *ir.Instr
	d      int
	freq   int64
	eff    EffectKind
	effLoc mLoc
}

func (n *mNode) String() string { return nodeName(n.in.ID, n.d) }

func nodeName(instr, d int) string { return fmt.Sprintf("i%d^%d", instr, d) }

func denseName(n *Node) string { return nodeName(n.In.ID, n.D) }

// mLoc is a model location; a nil alloc is a static field.
type mLoc struct {
	alloc *mNode
	field int
}

func (l mLoc) String() string {
	if l.alloc == nil {
		return fmt.Sprintf("static#%d", l.field)
	}
	return fmt.Sprintf("%s.f%d", l.alloc, l.field)
}

type mSet map[*mNode]struct{}

func (s mSet) add(n *mNode) bool {
	if _, ok := s[n]; ok {
		return false
	}
	s[n] = struct{}{}
	return true
}

type mapModel struct {
	prog  *ir.Program
	width int
	nodes map[nodeKey]*mNode
	order []*mNode // intern order, for deterministic picks

	deps, uses, refs                map[*mNode]mSet
	ptChildren, locStores, locLoads map[mLoc]mSet
	locsByOwner                     map[*mNode]map[int]struct{}
	numDep, numRef                  int
}

func newMapModel(prog *ir.Program, maxD int) *mapModel {
	return &mapModel{
		prog:        prog,
		width:       maxD + 2,
		nodes:       make(map[nodeKey]*mNode),
		deps:        make(map[*mNode]mSet),
		uses:        make(map[*mNode]mSet),
		refs:        make(map[*mNode]mSet),
		ptChildren:  make(map[mLoc]mSet),
		locStores:   make(map[mLoc]mSet),
		locLoads:    make(map[mLoc]mSet),
		locsByOwner: make(map[*mNode]map[int]struct{}),
	}
}

// node interns (in, d), reporting whether it was created.
func (m *mapModel) node(in *ir.Instr, d int) (*mNode, bool) {
	k := nodeKey{in.ID, d}
	if n, ok := m.nodes[k]; ok {
		return n, false
	}
	n := &mNode{in: in, d: d}
	m.nodes[k] = n
	m.order = append(m.order, n)
	m.deps[n], m.uses[n], m.refs[n] = mSet{}, mSet{}, mSet{}
	return n, true
}

func (m *mapModel) addDep(from, to *mNode) {
	if from == nil || to == nil || !m.deps[from].add(to) {
		return
	}
	m.uses[to].add(from)
	m.numDep++
}

func (m *mapModel) addRef(store, alloc *mNode) {
	if store == nil || alloc == nil || !m.refs[store].add(alloc) {
		return
	}
	m.numRef++
}

func addToLocSet(sets map[mLoc]mSet, loc mLoc, n *mNode) {
	if sets[loc] == nil {
		sets[loc] = mSet{}
	}
	sets[loc].add(n)
}

func (m *mapModel) addLocAccess(sets map[mLoc]mSet, loc mLoc, n *mNode) {
	addToLocSet(sets, loc, n)
	if loc.alloc == nil {
		return
	}
	if m.locsByOwner[loc.alloc] == nil {
		m.locsByOwner[loc.alloc] = make(map[int]struct{})
	}
	m.locsByOwner[loc.alloc][loc.field] = struct{}{}
}

func (m *mapModel) addChild(loc mLoc, child *mNode) {
	if child != nil {
		addToLocSet(m.ptChildren, loc, child)
	}
}

func mLess(a, b *mNode) bool {
	if a.in.ID != b.in.ID {
		return a.in.ID < b.in.ID
	}
	return a.d < b.d
}

func mLocLess(a, b mLoc) bool {
	switch {
	case a.alloc == nil && b.alloc == nil:
		return a.field < b.field
	case a.alloc == nil:
		return true
	case b.alloc == nil:
		return false
	case a.alloc != b.alloc:
		return mLess(a.alloc, b.alloc)
	default:
		return a.field < b.field
	}
}

func sortedNodes(s mSet) []*mNode {
	out := make([]*mNode, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return mLess(out[i], out[j]) })
	return out
}

func names(ns []*mNode) []string {
	out := []string{}
	for _, n := range ns {
		out = append(out, n.String())
	}
	return out
}

func (m *mapModel) sorted() []*mNode {
	out := append([]*mNode(nil), m.order...)
	sort.Slice(out, func(i, j int) bool { return mLess(out[i], out[j]) })
	return out
}

// locs returns every location that was ever loaded or stored, in locCmp
// order; withChildren adds the children-only locations.
func (m *mapModel) locs(withChildren bool) []mLoc {
	seen := make(map[mLoc]struct{})
	tables := []map[mLoc]mSet{m.locStores, m.locLoads}
	if withChildren {
		tables = append(tables, m.ptChildren)
	}
	var out []mLoc
	for _, t := range tables {
		for loc := range t {
			if _, dup := seen[loc]; !dup {
				seen[loc] = struct{}{}
				out = append(out, loc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return mLocLess(out[i], out[j]) })
	return out
}

func (m *mapModel) fieldsOf(owner *mNode) []int {
	fields := []int{}
	for f := range m.locsByOwner[owner] {
		fields = append(fields, f)
	}
	sort.Ints(fields)
	return fields
}

func (m *mapModel) children(owner *mNode) []string {
	type pair struct {
		field int
		child *mNode
	}
	var pairs []pair
	for loc, set := range m.ptChildren {
		if loc.alloc == owner {
			for c := range set {
				pairs = append(pairs, pair{loc.field, c})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].field != pairs[j].field {
			return pairs[i].field < pairs[j].field
		}
		return mLess(pairs[i].child, pairs[j].child)
	})
	out := []string{}
	for _, p := range pairs {
		out = append(out, fmt.Sprintf("%d:%s", p.field, p.child))
	}
	return out
}

func (m *mapModel) footprint() footprint {
	f := footprint{
		nodes:      len(m.order),
		indexSlots: m.prog.NumInstrs() * m.width,
		depEdges:   m.numDep,
		refEdges:   m.numRef,
		locs:       len(m.locs(true)),
	}
	for _, n := range m.order {
		if uint(n.d+1) >= uint(m.width) {
			f.overflow++
		}
	}
	for _, s := range m.locStores {
		f.stores += len(s)
	}
	for _, s := range m.locLoads {
		f.loads += len(s)
	}
	for _, s := range m.ptChildren {
		f.children += len(s)
	}
	return f
}

// encode renders the model in the serialized format Encode writes.
func (m *mapModel) encode() []byte {
	nodes := m.sorted()
	idx := make(map[*mNode]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	nodeIdx := func(n *mNode) int {
		if n == nil {
			return -1
		}
		return idx[n]
	}
	sg := serialGraph{Version: serialVersion, NumInstrs: m.prog.NumInstrs(), NumSites: m.prog.NumAllocSites()}
	for _, n := range nodes {
		sg.Nodes = append(sg.Nodes, serialNode{
			Instr: n.in.ID, D: n.d, Freq: n.freq, Eff: uint8(n.eff),
			EffAlloc: nodeIdx(n.effLoc.alloc), EffField: n.effLoc.field,
		})
		for _, d := range sortedNodes(m.deps[n]) {
			sg.DepEdges = append(sg.DepEdges, [2]int{idx[n], idx[d]})
		}
		for _, r := range sortedNodes(m.refs[n]) {
			sg.RefEdges = append(sg.RefEdges, [2]int{idx[n], idx[r]})
		}
	}
	locEdges := func(sets map[mLoc]mSet) []serialLocEdge {
		var out []serialLocEdge
		for loc, set := range sets {
			for n := range set {
				out = append(out, serialLocEdge{Alloc: nodeIdx(loc.alloc), Field: loc.field, Node: idx[n]})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Alloc != out[j].Alloc {
				return out[i].Alloc < out[j].Alloc
			}
			if out[i].Field != out[j].Field {
				return out[i].Field < out[j].Field
			}
			return out[i].Node < out[j].Node
		})
		return out
	}
	sg.Children = locEdges(m.ptChildren)
	sg.LocStores = locEdges(m.locStores)
	sg.LocLoads = locEdges(m.locLoads)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&sg); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// modelRun pairs a dense graph with the model and applies one mutation
// sequence to both.
type modelRun struct {
	t    testing.TB
	prog *ir.Program
	g    *Graph
	m    *mapModel
	data []byte
	pos  int
	cov  map[string]bool // modelFeatures reached
}

// modelFeatures names the features a sequence can exercise; the seeded
// test asserts that its sequences reach every one of them.
var modelFeatures = []string{
	"re-add", "NilRef", "self-loop", "overflow element", "static",
	"ElemField", "children-only location", "Freeze", "mutation after Freeze",
}

func (r *modelRun) more() bool { return r.pos < len(r.data) }

func (r *modelRun) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

func (r *modelRun) dense(n *mNode) *Node {
	if n == nil {
		return nil
	}
	d := r.g.Lookup(n.in, n.d)
	if d == nil {
		r.t.Fatalf("model node %s missing from the dense graph", n)
	}
	return d
}

func (r *modelRun) ref(n *mNode) Ref {
	if n == nil {
		r.cov["NilRef"] = true
		return NilRef
	}
	return r.dense(n).Ref()
}

func (r *modelRun) denseLoc(l mLoc) Loc { return Loc{Alloc: r.dense(l.alloc), Field: l.field} }

// pickNode draws an existing node, or nil.
func (r *modelRun) pickNode() *mNode {
	i := r.next() % (len(r.m.order) + 1)
	if i == len(r.m.order) {
		return nil
	}
	return r.m.order[i]
}

func (r *modelRun) pickLoc() mLoc {
	l := mLoc{alloc: r.pickNode(), field: r.next()%6 - 1}
	if l.alloc == nil {
		r.cov["static"] = true
	}
	if l.field == ElemField {
		r.cov["ElemField"] = true
	}
	return l
}

// intern interns a fresh (instruction, element) pair in both graphs; a new
// node gets an effect, as the profiler assigns on first sight.
func (r *modelRun) intern(dense func(*ir.Instr, int) *Node) (*mNode, *Node) {
	in := r.prog.Instrs[r.next()%len(r.prog.Instrs)]
	d := r.next()%11 - 3
	mn, created := r.m.node(in, d)
	n := dense(in, d)
	if uint(d+1) >= uint(r.m.width) {
		r.cov["overflow element"] = true
	}
	if !created {
		r.cov["re-add"] = true
		return mn, n
	}
	mn.eff = EffectKind(r.next() % 4)
	switch mn.eff {
	case EffAlloc:
		mn.effLoc = mLoc{alloc: mn}
	case EffLoad, EffStore:
		mn.effLoc = r.pickLoc()
	}
	n.Eff, n.EffLoc = mn.eff, r.denseLoc(mn.effLoc)
	return mn, n
}

const modelOps = 13

// step applies one mutation (or a Freeze with full comparison).
func (r *modelRun) step() {
	if r.g.frozen != nil {
		r.cov["mutation after Freeze"] = true
	}
	op := r.next() % modelOps
	switch op {
	case 0:
		mn, _ := r.intern(r.g.Touch)
		mn.freq++
	case 1:
		r.intern(r.g.Node)
	case 2:
		// TouchFast leaves invalidation to the caller, which the profiler
		// batches at call boundaries.
		mn, _ := r.intern(r.g.TouchFast)
		mn.freq++
		r.g.Invalidate()
	case 3:
		a, b := r.pickNode(), r.pickNode()
		r.noteEdge(a, b, r.m.deps)
		r.g.AddDep(r.dense(a), r.dense(b))
		r.m.addDep(a, b)
	case 4:
		a, b := r.pickNode(), r.pickNode()
		r.noteEdge(a, b, r.m.deps)
		r.g.AddDepRef(r.dense(a), r.ref(b))
		r.m.addDep(a, b)
	case 5:
		a, b := r.pickNode(), r.pickNode()
		if a == nil {
			return // the Ref form requires a valid source
		}
		r.noteEdge(a, b, r.m.deps)
		r.g.AddDepRefs(r.ref(a), r.ref(b))
		r.m.addDep(a, b)
	case 6:
		a, b := r.pickNode(), r.pickNode()
		r.noteEdge(a, b, r.m.refs)
		r.g.AddRef(r.dense(a), r.dense(b))
		r.m.addRef(a, b)
	case 7:
		a, b := r.pickNode(), r.pickNode()
		r.noteEdge(a, b, r.m.refs)
		r.g.AddRefs(r.ref(a), r.ref(b))
		r.m.addRef(a, b)
	case 8, 9:
		loc, n := r.pickLoc(), r.pickNode()
		if n == nil {
			return // a location access always has a node
		}
		if op == 8 {
			r.g.AddLocStore(r.denseLoc(loc), r.dense(n))
			r.m.addLocAccess(r.m.locStores, loc, n)
		} else {
			r.g.AddLocLoad(r.denseLoc(loc), r.dense(n))
			r.m.addLocAccess(r.m.locLoads, loc, n)
		}
	case 10:
		loc, c := r.pickLoc(), r.pickNode()
		if c != nil && r.m.locStores[loc] == nil && r.m.locLoads[loc] == nil {
			r.cov["children-only location"] = true
		}
		r.g.AddChild(r.denseLoc(loc), r.dense(c))
		r.m.addChild(loc, c)
	case 11:
		// Every read answers from the snapshot, so comparing freezes the
		// graph; later mutations must invalidate it.
		r.cov["Freeze"] = true
		r.compare("frozen")
	case 12:
		if n := r.pickNode(); n != nil {
			// SetFreq writes the node record directly, like Eff, so the
			// caller invalidates.
			v := int64(r.next())
			r.dense(n).SetFreq(v)
			n.freq = v
			r.g.Invalidate()
		}
	}
}

func (r *modelRun) noteEdge(a, b *mNode, sets map[*mNode]mSet) {
	if a != nil && a == b {
		r.cov["self-loop"] = true
	}
	if a != nil && b != nil {
		if _, ok := sets[a][b]; ok {
			r.cov["re-add"] = true
		}
	}
}

// run applies the whole sequence, then compares the graphs.
func (r *modelRun) run() {
	for r.more() {
		r.step()
	}
	r.compare("final")
}

func (r *modelRun) check(what string, got, want any) {
	r.t.Helper()
	if !reflect.DeepEqual(got, want) {
		r.t.Fatalf("after %d bytes: %s:\n dense %v\n model %v", r.pos, what, got, want)
	}
}

// denseNames lists the nodes visit yields, by name, in visit order.
func denseNames(visit func(func(*Node))) []string {
	out := []string{}
	visit(func(n *Node) { out = append(out, denseName(n)) })
	return out
}

// edgeNames lists an edge set's members by name in canonical node order
// (edge sets iterate in insertion order).
func edgeNames(visit func(func(*Node))) []string {
	var ns []*Node
	visit(func(n *Node) { ns = append(ns, n) })
	sort.Slice(ns, func(i, j int) bool { return nodeLess(ns[i], ns[j]) })
	out := []string{}
	for _, n := range ns {
		out = append(out, denseName(n))
	}
	return out
}

// compare checks every read of the dense graph, and its snapshot, against
// the model.
func (r *modelRun) compare(phase string) {
	r.t.Helper()
	g, m := r.g, r.m
	check := func(what string, got, want any) {
		r.t.Helper()
		r.check(phase+": "+what, got, want)
	}

	check("NumNodes", g.NumNodes(), len(m.order))
	check("NumDepEdges", g.NumDepEdges(), m.numDep)
	check("NumRefEdges", g.NumRefEdges(), m.numRef)
	var total int64
	for _, n := range m.order {
		total += n.freq
	}
	check("TotalFreq", g.TotalFreq(), total)

	// Lookup over every instruction and domain element, present or not.
	for _, in := range r.prog.Instrs {
		for d := -4; d <= 8; d++ {
			n := g.Lookup(in, d)
			mn := m.nodes[nodeKey{in.ID, d}]
			if (n == nil) != (mn == nil) || (n != nil && (n.In != in || n.D != d)) {
				r.t.Fatalf("%s: Lookup(i%d, %d) = %v, model %v", phase, in.ID, d, n, mn)
			}
		}
	}

	var gotNodes, wantNodes []string
	g.Nodes(func(n *Node) { gotNodes = append(gotNodes, fmt.Sprintf("%s=%d", denseName(n), n.Freq())) })
	for _, n := range m.sorted() {
		wantNodes = append(wantNodes, fmt.Sprintf("%s=%d", n, n.freq))
	}
	check("Nodes order and Freq", gotNodes, wantNodes)

	for _, mn := range m.order {
		n := r.dense(mn)
		check("Deps of "+mn.String(), edgeNames(n.Deps), names(sortedNodes(m.deps[mn])))
		check("Uses of "+mn.String(), edgeNames(n.Uses), names(sortedNodes(m.uses[mn])))
		check("RefEdges of "+mn.String(), edgeNames(n.RefEdges), names(sortedNodes(m.refs[mn])))
		check("NumDeps of "+mn.String(), n.NumDeps(), len(m.deps[mn]))
		check("NumUses of "+mn.String(), n.NumUses(), len(m.uses[mn]))
	}

	// Stores and loads of every location the model knows, plus probes of
	// locations nothing touched.
	probes := m.locs(true)
	probes = append(probes, mLoc{field: 99})
	if len(m.order) > 0 {
		probes = append(probes, mLoc{alloc: m.order[0], field: 99})
	}
	for _, loc := range probes {
		dl := r.denseLoc(loc)
		check("StoresOf "+loc.String(), denseNames(func(f func(*Node)) { g.StoresOf(dl, f) }), names(sortedNodes(m.locStores[loc])))
		check("LoadsOf "+loc.String(), denseNames(func(f func(*Node)) { g.LoadsOf(dl, f) }), names(sortedNodes(m.locLoads[loc])))
	}

	owners := append([]*mNode{nil}, m.order...)
	for _, mo := range owners {
		o := r.dense(mo)
		fields := []int{}
		g.FieldsOf(o, func(f int) { fields = append(fields, f) })
		check(fmt.Sprintf("FieldsOf %v", mo), fields, m.fieldsOf(mo))
		kids := []string{}
		g.Children(o, func(field int, c *Node) { kids = append(kids, fmt.Sprintf("%d:%s", field, denseName(c))) })
		check(fmt.Sprintf("Children %v", mo), kids, m.children(mo))
	}

	gotLocs, wantLocs := []string{}, []string{}
	g.Locs(func(l Loc) { gotLocs = append(gotLocs, l.String()) })
	for _, l := range m.locs(false) {
		wantLocs = append(wantLocs, r.denseLoc(l).String())
	}
	check("Locs", gotLocs, wantLocs)

	var enc bytes.Buffer
	if err := g.Encode(&enc); err != nil {
		r.t.Fatal(err)
	}
	if want := m.encode(); !bytes.Equal(enc.Bytes(), want) {
		r.t.Fatalf("after %d bytes: %s: Encode differs:\n dense %s\n model %s", r.pos, phase, enc.Bytes(), want)
	}
	check("footprint", g.footprint(), m.footprint())
	check("ApproxBytes", g.ApproxBytes(), m.footprint().bytes())

	r.compareSnapshot(phase, g.Freeze())
}

// compareSnapshot checks the CSR arrays of a frozen graph directly.
func (r *modelRun) compareSnapshot(phase string, s *Snapshot) {
	r.t.Helper()
	m := r.m
	check := func(what string, got, want any) {
		r.t.Helper()
		r.check(phase+": snapshot "+what, got, want)
	}
	sorted := m.sorted()
	check("node count", s.NumNodes(), len(sorted))
	check("int32s left in the slab", len(s.slab), 0)
	row := func(start, data []int32, i int) []string {
		out := []string{}
		for _, id := range data[start[i]:start[i+1]] {
			out = append(out, denseName(s.Nodes[id]))
		}
		return out
	}
	// childRow renders child row i; row len(sorted) holds the statics.
	childRow := func(i int) []string {
		kids := []string{}
		for k := s.ChildStart[i]; k < s.ChildStart[i+1]; k++ {
			kids = append(kids, fmt.Sprintf("%d:%s", s.ChildField[k], denseName(s.Nodes[s.Child[k]])))
		}
		return kids
	}
	check("static Child row", childRow(len(sorted)), m.children(nil))
	for i, mn := range sorted {
		n := s.Nodes[i]
		check("Nodes", denseName(n), mn.String())
		if id, ok := s.ID(n); !ok || int(id) != i {
			r.t.Fatalf("%s: snapshot ID(%s) = %d,%v, want %d", phase, mn, id, ok, i)
		}
		check("Freq of "+mn.String(), s.Freq[i], mn.freq)
		check("D of "+mn.String(), s.D[i], int32(mn.d))
		check("Eff of "+mn.String(), s.Eff[i], mn.eff)
		check("Consumer of "+mn.String(), s.Consumer[i], mn.in.IsConsumer())
		check("Predicate of "+mn.String(), s.Predicate[i], mn.in.IsPredicate())
		check("Dep row of "+mn.String(), row(s.DepStart, s.Dep, i), names(sortedNodes(m.deps[mn])))
		check("Use row of "+mn.String(), row(s.UseStart, s.Use, i), names(sortedNodes(m.uses[mn])))
		check("Ref row of "+mn.String(), row(s.RefStart, s.Ref, i), names(sortedNodes(m.refs[mn])))

		fields := []int{}
		for k := s.OwnerFieldStart[i]; k < s.OwnerFieldStart[i+1]; k++ {
			fields = append(fields, int(s.OwnerField[k]))
			if l := s.Locs[s.OwnerLoc[k]]; l.Alloc != n || l.Field != int(s.OwnerField[k]) {
				r.t.Fatalf("%s: snapshot OwnerLoc of %s field %d points at %v", phase, mn, s.OwnerField[k], l)
			}
		}
		check("OwnerField row of "+mn.String(), fields, m.fieldsOf(mn))
		check("Child row of "+mn.String(), childRow(i), m.children(mn))
	}
	locs := m.locs(false)
	check("Locs count", len(s.Locs), len(locs))
	for li, loc := range locs {
		check("Locs", s.Locs[li].String(), r.denseLoc(loc).String())
		if id, ok := s.LocID(s.Locs[li]); !ok || int(id) != li {
			r.t.Fatalf("%s: snapshot LocID(%v) = %d,%v, want %d", phase, loc, id, ok, li)
		}
		check("Store row of "+loc.String(), row(s.StoreStart, s.Store, li), names(sortedNodes(m.locStores[loc])))
		check("Load row of "+loc.String(), row(s.LoadStart, s.Load, li), names(sortedNodes(m.locLoads[loc])))
	}
}

func runModel(t testing.TB, data []byte) map[string]bool {
	prog := mkProgWithOps(t)
	r := &modelRun{
		t: t, prog: prog, data: data, cov: make(map[string]bool),
		g: NewSized(prog, modelMaxD), m: newMapModel(prog, modelMaxD),
	}
	r.run()
	return r.cov
}

// TestDenseMatchesMapModel drives the dense graph and the map model through
// seeded random mutation sequences and compares every read after each
// interleaved Freeze and at the end. The sequences together must reach
// every feature the model exists to check.
func TestDenseMatchesMapModel(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	seen := make(map[string]bool)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 150+rng.Intn(450))
		rng.Read(data)
		for f := range runModel(t, data) {
			seen[f] = true
		}
	}
	for _, f := range modelFeatures {
		if !seen[f] {
			t.Errorf("no sequence exercised: %s", f)
		}
	}
}

// FuzzDenseMatchesMapModel is TestDenseMatchesMapModel over arbitrary byte
// strings; each byte string is one mutation sequence.
func FuzzDenseMatchesMapModel(f *testing.F) {
	f.Add([]byte{})
	// Intern two nodes, then every edge form between them, a self-loop,
	// statics and ElemField accesses, a children-only location, and a
	// Freeze between mutations.
	f.Add([]byte{0, 1, 4, 0, 0, 2, 5, 1, 3, 0, 1, 3, 0, 0, 4, 1, 2, 5, 0, 1,
		6, 1, 0, 7, 0, 1, 8, 2, 0, 0, 9, 0, 3, 1, 10, 1, 5, 0, 11, 0, 0, 12, 1, 3, 11})
	// Domain elements beyond the direct index and below NoContext.
	f.Add([]byte{0, 3, 10, 1, 1, 0, 0, 0, 2, 5, 9, 3, 11, 3, 0, 1, 11})
	f.Add(bytes.Repeat([]byte{0, 7, 3, 2, 3, 1, 0, 11}, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		runModel(t, data)
	})
}
