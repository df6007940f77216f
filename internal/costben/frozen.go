package costben

// The frozen analysis path computes HRAC (Definition 5) for every node in
// one sweep, and HRAB (Definition 6) likewise, instead of one graph
// traversal per query.
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
// depgraph.HRAB), which the differential test keeps as the reference.

import (
	"math/bits"
	"sort"
	"sync"

	"lowutil/internal/depgraph"
)

// dpData holds every snapshot-derived array the frozen analysis reads:
// per-node HRAC/HRAB (dense node ID index) and per-location RAC/RAB (dense
// Locs index). All of it is a pure function of the immutable snapshot, so
// it is memoized on the snapshot itself — repeated analyses over the same
// graph pay only once.
type dpData struct {
	hrac     []int64
	hrab     []int64
	consumed []bool
	rac      []float64
	rab      []float64
}

type dpKey struct{}

// dpFor returns the (possibly cached) DP arrays for s.
func dpFor(s *depgraph.Snapshot) *dpData {
	return s.Memo(dpKey{}, func() any {
		d := &dpData{}
		d.hrac, _ = closureSums(s, false)
		d.hrab, d.consumed = closureSums(s, true)

		// Per-location means over the store/load CSR rows (Definitions 5/6):
		// RAC is the mean HRAC of the location's stores, RAB the mean HRAB
		// of its loads — InfiniteRAB if any load's value reaches a consumer.
		d.rac = make([]float64, len(s.Locs))
		d.rab = make([]float64, len(s.Locs))
		for li := range s.Locs {
			if row := s.Store[s.StoreStart[li]:s.StoreStart[li+1]]; len(row) > 0 {
				var sum int64
				for _, id := range row {
					sum += d.hrac[id]
				}
				d.rac[li] = float64(sum) / float64(len(row))
			}
			if row := s.Load[s.LoadStart[li]:s.LoadStart[li+1]]; len(row) > 0 {
				var sum int64
				infinite := false
				for _, id := range row {
					if d.consumed[id] {
						infinite = true
					}
					sum += d.hrab[id]
				}
				if infinite {
					d.rab[li] = InfiniteRAB
				} else {
					d.rab[li] = float64(sum) / float64(len(row))
				}
			}
		}
		return d
	}).(*dpData)
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

// aggregateFrozen is the CSR counterpart of Analysis.aggregate: a BFS over
// the points-to child rows collects RT_root (first visit keeps the
// shallowest depth, like ObjectTree), and every field of every
// owner at depth < height contributes its precomputed per-location metric.
// Values are summed in sorted order, exactly like aggregate, so the
// float result is bit-identical.
func aggregateFrozen(s *depgraph.Snapshot, dp *dpData, root int32, height int, benefit bool) (float64, bool) {
	sc := getScratch(s.NumNodes())
	defer putScratch(sc)

	sc.queue = append(sc.queue, root)
	sc.depth[root] = 0
	consumed := false
	for qi := 0; qi < len(sc.queue); qi++ {
		v := sc.queue[qi]
		d := sc.depth[v]
		if d >= int32(height) {
			continue // fringe owners neither contribute nor expand
		}
		for k := s.OwnerFieldStart[v]; k < s.OwnerFieldStart[v+1]; k++ {
			li := s.OwnerLoc[k]
			val := dp.rac[li]
			if benefit {
				val = dp.rab[li]
			}
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
