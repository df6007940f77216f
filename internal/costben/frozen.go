package costben

// The snapshot path computes HRAC (Definition 5) for every node in one
// sweep, and HRAB (Definition 6) likewise, instead of one graph traversal
// per query; a per-location metric is a mean over the snapshot's store or
// load row, and a data-structure aggregate is one CSR walk of the reference
// tree.
//
// HRAC/HRAB are sums over *reachability sets*, not over paths, so they do
// not distribute over a plain topological DP: a diamond would count the
// shared tail twice. The sweep therefore works on the SCC condensation of
// the boundary-restricted graph (heap readers backward, heap writers and
// consumers forward; boundary nodes lose their out-edges and become
// singleton components) and runs a batched transitive closure: 64 sources
// at a time carry a bitmask per component, masks propagate along condensed
// edges in one descending pass (components are in reverse topological
// order), and each component adds its weight to every source whose bit
// reached it. Per-component weights encode the paper's counting rules, so
// the result is bit-identical to the per-node traversal (depgraph.HRAC and
// depgraph.HRAB), which the differential test keeps, with a map-based
// reference tree, as the reference.

import (
	"math/bits"
	"sort"
	"sync"

	"lowutil/internal/depgraph"
)

// dpData holds the one-hop arrays the frozen analysis reads: per-node
// HRAC/HRAB (dense node ID index) and the per-location RAC/RAB tables.
type dpData struct {
	hrac     []int64
	hrab     []int64
	consumed []bool
	locTables
}

// locTables holds the RAC and RAB of every location at one hop count,
// indexed like Snapshot.Locs.
type locTables struct{ rac, rab []float64 }

// newDP computes the one-hop arrays of s.
func newDP(s *depgraph.Snapshot) *dpData {
	d := &dpData{}
	d.hrac, _ = closureSums(s, false)
	d.hrab, d.consumed = closureSums(s, true)
	d.rac, d.rab = locMeans(s,
		func(id int32) int64 { return d.hrac[id] },
		func(id int32) (int64, bool) { return d.hrab[id], d.consumed[id] })
	return d
}

// locMeans computes the per-location means over the store/load CSR rows
// (Definitions 5/6), indexed like s.Locs: a location's cost is the mean
// cost of its stores, its benefit the mean benefit of its loads, or
// InfiniteRAB if any load's value reaches a consumer.
func locMeans(s *depgraph.Snapshot, cost func(id int32) int64, benefit func(id int32) (int64, bool)) (rac, rab []float64) {
	rac = make([]float64, len(s.Locs))
	rab = make([]float64, len(s.Locs))
	for li := range s.Locs {
		if row := s.Store[s.StoreStart[li]:s.StoreStart[li+1]]; len(row) > 0 {
			var sum int64
			for _, id := range row {
				sum += cost(id)
			}
			rac[li] = float64(sum) / float64(len(row))
		}
		if row := s.Load[s.LoadStart[li]:s.LoadStart[li+1]]; len(row) > 0 {
			var sum int64
			infinite := false
			for _, id := range row {
				v, consumed := benefit(id)
				infinite = infinite || consumed
				sum += v
			}
			if infinite {
				rab[li] = InfiniteRAB
			} else {
				rab[li] = float64(sum) / float64(len(row))
			}
		}
	}
	return rac, rab
}

// locMetric reads a per-location table; locations the snapshot does not
// hold (never stored or loaded) have metric 0.
func locMetric(s *depgraph.Snapshot, metric []float64, loc depgraph.Loc) float64 {
	if li, ok := s.LocID(loc); ok {
		return metric[li]
	}
	return 0
}

// treeScratch is the reusable BFS state of aggregateFrozen.
type treeScratch struct {
	depth []int32 // -1 = unvisited; reset via queue after each use
	queue []int32
	vals  []float64
}

var scratchPool sync.Pool

func getScratch(n int) *treeScratch {
	sc, _ := scratchPool.Get().(*treeScratch)
	if sc == nil || len(sc.depth) < n {
		sc = &treeScratch{depth: make([]int32, n)}
		for i := range sc.depth {
			sc.depth[i] = -1
		}
	}
	return sc
}

func putScratch(sc *treeScratch) {
	for _, v := range sc.queue {
		sc.depth[v] = -1
	}
	sc.queue = sc.queue[:0]
	sc.vals = sc.vals[:0]
	scratchPool.Put(sc)
}

// aggregateFrozen sums metric, a per-location table, over the data structure
// rooted at root: a BFS over the points-to child rows collects the object
// reference tree RT_root (first visit keeps the shallowest depth), and
// every field of every owner at depth < height contributes its metric,
// InfiniteRAB as ConsumedRAB (reported by the flag). Values are summed in
// sorted order, so the float result does not depend on the walk order.
func aggregateFrozen(s *depgraph.Snapshot, metric []float64, root *depgraph.Node, height int) (float64, bool) {
	id, ok := s.ID(root)
	if !ok {
		return 0, false
	}
	sc := getScratch(s.NumNodes())
	defer putScratch(sc)

	sc.queue = append(sc.queue, id)
	sc.depth[id] = 0
	consumed := false
	for qi := 0; qi < len(sc.queue); qi++ {
		v := sc.queue[qi]
		d := sc.depth[v]
		if d >= int32(height) {
			continue // fringe owners neither contribute nor expand
		}
		for k := s.OwnerFieldStart[v]; k < s.OwnerFieldStart[v+1]; k++ {
			val := metric[s.OwnerLoc[k]]
			if val == InfiniteRAB {
				consumed = true
				val = ConsumedRAB
			}
			sc.vals = append(sc.vals, val)
		}
		for k := s.ChildStart[v]; k < s.ChildStart[v+1]; k++ {
			c := s.Child[k]
			if sc.depth[c] < 0 {
				sc.depth[c] = d + 1
				sc.queue = append(sc.queue, c)
			}
		}
	}
	sort.Float64s(sc.vals)
	total := 0.0
	for _, v := range sc.vals {
		total += v
	}
	return total, consumed
}

// closureSums runs the batched closure. forward=false computes HRAC over
// dep edges with heap readers as boundary; forward=true computes HRAB over
// use edges with consumers and heap writers as boundary (consumers are
// counted sinks, writers uncounted). The seed node itself is always counted
// and always traversed, even when it is a boundary node.
func closureSums(s *depgraph.Snapshot, forward bool) (vals []int64, consumed []bool) {
	n := s.NumNodes()
	vals = make([]int64, n)
	if forward {
		consumed = make([]bool, n)
	}
	if n == 0 {
		return vals, consumed
	}

	boundary := make([]bool, n)
	for i := 0; i < n; i++ {
		if forward {
			boundary[i] = s.Consumer[i] || s.Eff[i] == depgraph.EffStore
		} else {
			boundary[i] = s.Eff[i] == depgraph.EffLoad
		}
	}
	c := s.Condense(forward, boundary)
	nc := c.NumComps

	// Per-component weight and consumer flag. Interior members count their
	// frequency; reached boundary nodes count only if they are consumers
	// (forward), which also marks the source consumed.
	compW := make([]int64, nc)
	var compCons []bool
	if forward {
		compCons = make([]bool, nc)
	}
	for ci := 0; ci < nc; ci++ {
		for _, v := range c.Members(int32(ci)) {
			switch {
			case !boundary[v]:
				compW[ci] += s.Freq[v]
			case forward && s.Consumer[v]:
				compW[ci] += s.Freq[v]
				compCons[ci] = true
			}
		}
	}

	// One source per interior component (seeded with its own bit: the seed
	// and its cycle-mates count themselves) and one per boundary node
	// (seeded with the components of its direct targets; its own component
	// is excluded so a cycle back to a consumer seed does not re-count it —
	// the per-node walk marks the seed visited up front).
	type source struct {
		node int32 // boundary node ID, or -1 for an interior component
		comp int32
	}
	var sources []source
	compSrc := make([]int32, nc)
	nodeSrc := make([]int32, n)
	for ci := 0; ci < nc; ci++ {
		members := c.Members(int32(ci))
		if len(members) == 1 && boundary[members[0]] {
			compSrc[ci] = -1
			continue
		}
		compSrc[ci] = int32(len(sources))
		sources = append(sources, source{node: -1, comp: int32(ci)})
	}
	for v := 0; v < n; v++ {
		if boundary[v] {
			nodeSrc[v] = int32(len(sources))
			sources = append(sources, source{node: int32(v), comp: c.CompOf[v]})
		}
	}

	start, adj := s.DepStart, s.Dep
	if forward {
		start, adj = s.UseStart, s.Use
	}

	srcVal := make([]int64, len(sources))
	srcCons := make([]bool, len(sources))
	mask := make([]uint64, nc)
	for base := 0; base < len(sources); base += 64 {
		batch := sources[base:min(base+64, len(sources))]
		for i := range mask {
			mask[i] = 0
		}
		for b, src := range batch {
			bit := uint64(1) << b
			if src.node < 0 {
				mask[src.comp] |= bit
			} else {
				for _, t := range adj[start[src.node]:start[src.node+1]] {
					mask[c.CompOf[t]] |= bit
				}
			}
		}
		// Condensed edges always point to smaller component indices, so one
		// descending pass completes the closure.
		for ci := nc - 1; ci >= 0; ci-- {
			m := mask[ci]
			if m == 0 {
				continue
			}
			for _, t := range c.Succs(int32(ci)) {
				mask[t] |= m
			}
		}
		for ci := 0; ci < nc; ci++ {
			m := mask[ci]
			if m == 0 {
				continue
			}
			w := compW[ci]
			cons := forward && compCons[ci]
			if w == 0 && !cons {
				continue
			}
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				src := batch[b]
				if src.node >= 0 && src.comp == int32(ci) {
					continue // boundary seed's own component: counted as Freq below
				}
				srcVal[base+b] += w
				if cons {
					srcCons[base+b] = true
				}
			}
		}
	}

	for i := 0; i < n; i++ {
		var k int32
		if boundary[i] {
			k = nodeSrc[i]
			vals[i] = s.Freq[i] + srcVal[k]
		} else {
			k = compSrc[c.CompOf[i]]
			vals[i] = srcVal[k]
		}
		if forward {
			consumed[i] = srcCons[k]
		}
	}
	return vals, consumed
}
