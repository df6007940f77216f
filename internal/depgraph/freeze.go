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
// permutation array maps intern IDs to canonical dense IDs, and LocID goes
// through the graph's own location index, so no map is built. The snapshot
// is a pure read-model: it is valid as long as the graph is not mutated
// through the Graph API (any such mutation invalidates the cached snapshot,
// and the next Freeze rebuilds it). Writing Node fields or SetFreq directly
// does not invalidate it; call Invalidate in that case.

import (
	"cmp"
	"slices"
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

	// Locs lists every abstract location ever loaded or stored, in locCmp
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

	// perm maps intern ID → dense ID for every node of the source graph,
	// and locID the graph's location entry index → index in Locs (-1 for
	// an entry never loaded or stored).
	perm  []int32
	locID []int32

	// slab is the one int32 array that D, perm, locID and every CSR array
	// are carved from, less what the build has taken; empty once Freeze
	// returns.
	slab []int32
}

// Freeze returns the cached CSR snapshot of the graph, building it if the
// graph changed since the last call. The build is linear in nodes, edges,
// location entries and instructions, up to the sorts of each row, of the
// accessed locations and of the points-to pairs, and makes at most a dozen
// allocations on any graph: the int32 arrays share one slab.
func (g *Graph) Freeze() *Snapshot {
	if g.frozen != nil {
		return g.frozen
	}
	s := &Snapshot{G: g}
	s.slab = make([]int32, g.slabLen())
	s.order()

	n := len(s.Nodes)
	s.Freq = make([]int64, n)
	s.D = s.take(n)
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

	s.DepStart, s.Dep = s.buildAdj(g.depSets)
	s.UseStart, s.Use = s.buildAdj(g.useSets)
	s.RefStart, s.Ref = s.buildAdj(g.refSets)
	s.buildLocs()
	s.buildChildren()

	g.frozen = s
	return s
}

// order assigns the dense IDs: a counting sort of the nodes by instruction
// ID, then each instruction's bucket (its direct-index and overflow-map
// nodes alike) ordered by context.
func (s *Snapshot) order() {
	all := s.G.all
	maxInstr := -1
	for _, nd := range all {
		maxInstr = max(maxInstr, int(nd.In.ID))
	}
	// end[i+1] first counts instruction i's nodes; after the prefix sum
	// end[i] is where its bucket starts, and after placement where it ends.
	end := make([]int32, maxInstr+2)
	for _, nd := range all {
		end[nd.In.ID+1]++
	}
	for i := 1; i < len(end); i++ {
		end[i] += end[i-1]
	}
	s.Nodes = make([]*Node, len(all))
	for _, nd := range all {
		s.Nodes[end[nd.In.ID]] = nd
		end[nd.In.ID]++
	}
	lo := int32(0)
	for _, hi := range end[:maxInstr+1] {
		if hi-lo > 1 {
			slices.SortFunc(s.Nodes[lo:hi], func(a, b *Node) int { return cmp.Compare(a.D, b.D) })
		}
		lo = hi
	}
	s.perm = s.take(len(all))
	for i, nd := range s.Nodes {
		s.perm[nd.id] = int32(i)
	}
}

// buildAdj flattens one edge family, given as its sets by intern ID, into
// CSR, sorting each row in place.
func (s *Snapshot) buildAdj(sets []nodeSet) (start, data []int32) {
	n := len(s.Nodes)
	start = s.take(n + 1)
	for i, nd := range s.Nodes {
		start[i+1] = start[i] + int32(sets[nd.id].len())
	}
	data = s.take(int(start[n]))
	for i, nd := range s.Nodes {
		row := data[start[i]:start[i+1]]
		for k, id := range sets[nd.id].list {
			row[k] = s.perm[id]
		}
		slices.Sort(row)
	}
	return start, data
}

// buildLocs constructs the location table and the store/load and
// fields-per-owner CSR indexes. Only locations that were ever loaded or
// stored appear (children-only entries are points-to structure, not heap
// accesses).
func (s *Snapshot) buildLocs() {
	g := s.G
	// ord lists the accessed entries' indices in locCmp order.
	ord := make([]int32, 0, len(g.locEntries))
	for i := range g.locEntries {
		if g.locEntries[i].accessed {
			ord = append(ord, int32(i))
		}
	}
	slices.SortFunc(ord, func(a, b int32) int { return locCmp(g.locEntries[a].loc, g.locEntries[b].loc) })
	s.Locs = make([]Loc, len(ord))
	s.locID = s.take(len(g.locEntries))
	for i := range s.locID {
		s.locID[i] = -1
	}
	for j, li := range ord {
		s.Locs[j] = g.locEntries[li].loc
		s.locID[li] = int32(j)
	}

	s.StoreStart, s.Store = s.buildLocCSR(ord, func(e *locEntry) []int32 { return e.stores })
	s.LoadStart, s.Load = s.buildLocCSR(ord, func(e *locEntry) []int32 { return e.loads })

	n := len(s.Nodes)
	s.OwnerFieldStart = s.take(n + 1)
	for _, loc := range s.Locs {
		if loc.Alloc != nil {
			s.OwnerFieldStart[s.perm[loc.Alloc.id]+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.OwnerFieldStart[i+1] += s.OwnerFieldStart[i]
	}
	// Past the statics, Locs runs through the owners in dense order, each
	// owner's fields contiguous, so the rows fill in sequence.
	s.OwnerField = s.take(int(s.OwnerFieldStart[n]))
	s.OwnerLoc = s.take(int(s.OwnerFieldStart[n]))
	k := 0
	for li, loc := range s.Locs {
		if loc.Alloc == nil {
			continue
		}
		s.OwnerField[k] = int32(loc.Field)
		s.OwnerLoc[k] = int32(li)
		k++
	}
}

// buildLocCSR flattens one per-location node list, for the entries in ord,
// into CSR, sorting each row in place.
func (s *Snapshot) buildLocCSR(ord []int32, rowOf func(*locEntry) []int32) (start, data []int32) {
	g := s.G
	start = s.take(len(ord) + 1)
	for j, li := range ord {
		start[j+1] = start[j] + int32(len(rowOf(&g.locEntries[li])))
	}
	data = s.take(int(start[len(ord)]))
	for j, li := range ord {
		row := data[start[j]:start[j+1]]
		for k, id := range rowOf(&g.locEntries[li]) {
			row[k] = s.perm[id]
		}
		slices.Sort(row)
	}
	return start, data
}

// buildChildren constructs the per-owner points-to child CSR, with the
// static-held children in the extra last row.
func (s *Snapshot) buildChildren() {
	g := s.G
	n := int32(len(s.Nodes))
	type pair struct{ owner, field, child int32 }
	np := 0
	for i := range g.locEntries {
		np += g.locEntries[i].children.len()
	}
	pairs := make([]pair, 0, np)
	for i := range g.locEntries {
		e := &g.locEntries[i]
		oi := n
		if e.loc.Alloc != nil {
			oi = s.perm[e.loc.Alloc.id]
		}
		for _, c := range e.children.list {
			pairs = append(pairs, pair{oi, int32(e.loc.Field), s.perm[c]})
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.owner, b.owner); c != 0 {
			return c
		}
		if c := cmp.Compare(a.field, b.field); c != 0 {
			return c
		}
		return cmp.Compare(a.child, b.child)
	})
	s.ChildStart = s.take(int(n) + 2)
	s.ChildField = s.take(len(pairs))
	s.Child = s.take(len(pairs))
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

// LocID returns the dense index of loc in Locs and whether it exists. It
// resolves loc through the graph's own location index.
func (s *Snapshot) LocID(loc Loc) (int32, bool) {
	li, ok := s.G.locIDs[loc]
	if !ok || int(li) >= len(s.locID) || s.locID[li] < 0 {
		return 0, false
	}
	return s.locID[li], true
}

// take carves the next k int32s from the slab.
func (s *Snapshot) take(k int) []int32 {
	r := s.slab[:k:k]
	s.slab = s.slab[k:]
	return r
}

// slabLen counts the int32s Freeze takes: per node its D, perm and slot in
// each of the five node-indexed start arrays (dep, use, ref, owner fields,
// children); every dep, use and ref edge; a locID per location entry; per
// accessed location its two start slots (stores, loads), its stores and
// loads, and for an owned location its OwnerField and OwnerLoc; two per
// points-to pair; and the closing slot of the seven start arrays plus the
// children's static row.
func (g *Graph) slabLen() int {
	t := 7*len(g.all) + 8 + len(g.locEntries)
	for i := range g.all {
		t += g.depSets[i].len() + g.useSets[i].len() + g.refSets[i].len()
	}
	for i := range g.locEntries {
		e := &g.locEntries[i]
		if e.accessed {
			t += 2 + len(e.stores) + len(e.loads)
			if e.loc.Alloc != nil {
				t += 2
			}
		}
		t += 2 * e.children.len()
	}
	return t
}
