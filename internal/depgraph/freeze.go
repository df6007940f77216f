package depgraph

// Freeze compacts a finished Gcost into an immutable compressed-sparse-row
// (CSR) snapshot: dense int32 node IDs assigned in canonical (instruction,
// context) order, flat adjacency arrays for dep/use/ref edges, parallel
// arrays for frequency/effect/context, and CSR-indexed location tables
// (stores, loads, fields-per-owner, points-to children). It is the graph's
// one read model: the Graph read methods, Encode, the condensation, the
// cost-benefit DP and deadness all run over it.
//
// Snapshotting routes off the graph's intern list and per-location lists: a
// permutation array maps intern IDs to canonical dense IDs, so no per-node
// map is built. The snapshot is a pure read-model: it is valid as long as
// the graph is not mutated through the Graph API (any such mutation
// invalidates the cached snapshot, and the next Freeze rebuilds it).
// Writing Node fields or SetFreq directly does not invalidate it; call
// Invalidate in that case.

import (
	"sort"
	"sync"
)

// Snapshot is the frozen CSR form of a Graph. All adjacency rows are sorted
// by dense node ID, so every iteration over the snapshot is deterministic.
type Snapshot struct {
	G *Graph

	// Nodes maps dense ID → node, sorted by (instruction ID, context slot).
	Nodes []*Node

	// Per-node parallel arrays, indexed by dense ID.
	Freq      []int64
	D         []int32
	Eff       []EffectKind
	Consumer  []bool
	Predicate []bool

	// Dep/Use/Ref adjacency in CSR form: the targets of node i are
	// Dep[DepStart[i]:DepStart[i+1]] etc., each row sorted ascending.
	DepStart []int32
	Dep      []int32
	UseStart []int32
	Use      []int32
	RefStart []int32
	Ref      []int32

	// Locs lists every abstract location ever loaded or stored, in locLess
	// order (statics first). Store/Load hold the store/load node IDs of
	// location j in Store[StoreStart[j]:StoreStart[j+1]] etc.
	Locs       []Loc
	StoreStart []int32
	Store      []int32
	LoadStart  []int32
	Load       []int32

	// OwnerField/OwnerLoc list, per owning allocation node, the fields ever
	// accessed on its objects and the corresponding Locs indices.
	OwnerFieldStart []int32
	OwnerField      []int32
	OwnerLoc        []int32

	// ChildField/Child list, per owning allocation node, the points-to
	// children pairs (field, child allocation node ID). ChildStart has one
	// row past the nodes, row NumNodes(), for the children held in static
	// fields.
	ChildStart []int32
	ChildField []int32
	Child      []int32

	// perm maps intern ID → dense ID for every node of the source graph.
	perm  []int32
	locID map[Loc]int32

	memoMu sync.Mutex
	memo   map[any]any
}

// Memo returns the value cached under key, building it on first use. The
// snapshot is immutable, so derived results (condensations, DP arrays,
// per-location aggregates) are valid for its whole lifetime; clients key
// them here instead of recomputing per analysis. build runs under the memo
// lock and must not call Memo on the same snapshot.
func (s *Snapshot) Memo(key any, build func() any) any {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if v, ok := s.memo[key]; ok {
		return v
	}
	v := build()
	if s.memo == nil {
		s.memo = make(map[any]any)
	}
	s.memo[key] = v
	return v
}

// Freeze returns the cached CSR snapshot of the graph, building it if the
// graph changed since the last call.
func (g *Graph) Freeze() *Snapshot {
	if g.frozen != nil {
		return g.frozen
	}
	n := len(g.all)
	s := &Snapshot{G: g}

	s.Nodes = make([]*Node, n)
	copy(s.Nodes, g.all)
	sort.Slice(s.Nodes, func(i, j int) bool { return nodeLess(s.Nodes[i], s.Nodes[j]) })
	s.perm = make([]int32, n)
	for i, nd := range s.Nodes {
		s.perm[nd.id] = int32(i)
	}

	s.Freq = make([]int64, n)
	s.D = make([]int32, n)
	s.Eff = make([]EffectKind, n)
	s.Consumer = make([]bool, n)
	s.Predicate = make([]bool, n)
	for i, nd := range s.Nodes {
		s.Freq[i] = nd.Freq()
		s.D[i] = int32(nd.D)
		s.Eff[i] = nd.Eff
		s.Consumer[i] = nd.IsConsumer()
		s.Predicate[i] = nd.IsPredicate()
	}

	s.DepStart, s.Dep = s.buildAdj(func(nd *Node) *nodeSet { return &g.depSets[nd.id] })
	s.UseStart, s.Use = s.buildAdj(func(nd *Node) *nodeSet { return &g.useSets[nd.id] })
	s.RefStart, s.Ref = s.buildAdj(func(nd *Node) *nodeSet { return &g.refSets[nd.id] })
	s.buildLocs()
	s.buildChildren()

	g.frozen = s
	return s
}

// buildAdj flattens one edge family into CSR with sorted rows.
func (s *Snapshot) buildAdj(setOf func(*Node) *nodeSet) (start, data []int32) {
	n := len(s.Nodes)
	start = make([]int32, n+1)
	for i, nd := range s.Nodes {
		start[i+1] = start[i] + int32(setOf(nd).len())
	}
	data = make([]int32, start[n])
	cursor := make([]int32, n)
	copy(cursor, start[:n])
	for i, nd := range s.Nodes {
		setOf(nd).each(s.G.all, func(t *Node) {
			data[cursor[i]] = s.perm[t.id]
			cursor[i]++
		})
	}
	for i := 0; i < n; i++ {
		row := data[start[i]:start[i+1]]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
	}
	return start, data
}

// buildLocs constructs the location table and the store/load and
// fields-per-owner CSR indexes. Only locations that were ever loaded or
// stored appear (children-only entries are points-to structure, not heap
// accesses).
func (s *Snapshot) buildLocs() {
	g := s.G
	for i := range g.locEntries {
		if g.locEntries[i].accessed {
			s.Locs = append(s.Locs, g.locEntries[i].loc)
		}
	}
	sort.Slice(s.Locs, func(i, j int) bool { return locLess(s.Locs[i], s.Locs[j]) })
	s.locID = make(map[Loc]int32, len(s.Locs))
	for i, loc := range s.Locs {
		s.locID[loc] = int32(i)
	}

	s.StoreStart, s.Store = s.buildLocCSR(func(e *locEntry) []int32 { return e.stores })
	s.LoadStart, s.Load = s.buildLocCSR(func(e *locEntry) []int32 { return e.loads })

	// Locs is sorted by owner, so each owner's fields form a contiguous run.
	n := len(s.Nodes)
	s.OwnerFieldStart = make([]int32, n+1)
	for _, loc := range s.Locs {
		if loc.Alloc != nil {
			s.OwnerFieldStart[s.perm[loc.Alloc.id]+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.OwnerFieldStart[i+1] += s.OwnerFieldStart[i]
	}
	s.OwnerField = make([]int32, s.OwnerFieldStart[n])
	s.OwnerLoc = make([]int32, s.OwnerFieldStart[n])
	cursor := make([]int32, n)
	copy(cursor, s.OwnerFieldStart[:n])
	for li, loc := range s.Locs {
		if loc.Alloc == nil {
			continue
		}
		oi := s.perm[loc.Alloc.id]
		s.OwnerField[cursor[oi]] = int32(loc.Field)
		s.OwnerLoc[cursor[oi]] = int32(li)
		cursor[oi]++
	}
}

func (s *Snapshot) buildLocCSR(rowOf func(*locEntry) []int32) (start, data []int32) {
	g := s.G
	nl := len(s.Locs)
	start = make([]int32, nl+1)
	for li, loc := range s.Locs {
		e := &g.locEntries[g.locIDs[loc]]
		start[li+1] = start[li] + int32(len(rowOf(e)))
	}
	data = make([]int32, start[nl])
	for li, loc := range s.Locs {
		e := &g.locEntries[g.locIDs[loc]]
		i := start[li]
		for _, id := range rowOf(e) {
			data[i] = s.perm[id]
			i++
		}
		row := data[start[li]:start[li+1]]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
	}
	return start, data
}

// buildChildren constructs the per-owner points-to child CSR, with the
// static-held children in the extra last row.
func (s *Snapshot) buildChildren() {
	g := s.G
	n := int32(len(s.Nodes))
	type pair struct{ owner, field, child int32 }
	var pairs []pair
	for i := range g.locEntries {
		e := &g.locEntries[i]
		if e.children.len() == 0 {
			continue
		}
		oi := n
		if e.loc.Alloc != nil {
			oi = s.perm[e.loc.Alloc.id]
		}
		e.children.each(g.all, func(c *Node) {
			pairs = append(pairs, pair{oi, int32(e.loc.Field), s.perm[c.id]})
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].owner != pairs[j].owner {
			return pairs[i].owner < pairs[j].owner
		}
		if pairs[i].field != pairs[j].field {
			return pairs[i].field < pairs[j].field
		}
		return pairs[i].child < pairs[j].child
	})
	s.ChildStart = make([]int32, n+2)
	s.ChildField = make([]int32, len(pairs))
	s.Child = make([]int32, len(pairs))
	for i, p := range pairs {
		s.ChildStart[p.owner+1]++
		s.ChildField[i] = p.field
		s.Child[i] = p.child
	}
	for i := int32(0); i <= n; i++ {
		s.ChildStart[i+1] += s.ChildStart[i]
	}
}

// NumNodes returns the node count.
func (s *Snapshot) NumNodes() int { return len(s.Nodes) }

// ID returns the dense ID of n and whether n belongs to the snapshot.
func (s *Snapshot) ID(n *Node) (int32, bool) {
	if n == nil || int(n.id) >= len(s.perm) {
		return 0, false
	}
	id := s.perm[n.id]
	if s.Nodes[id] != n {
		return 0, false
	}
	return id, true
}

// LocID returns the dense index of loc in Locs and whether it exists.
func (s *Snapshot) LocID(loc Loc) (int32, bool) {
	id, ok := s.locID[loc]
	return id, ok
}
