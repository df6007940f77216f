package depgraph

// SCC condensation over the frozen CSR snapshot, the package's one SCC
// implementation: an iterative Tarjan run over flat int32 adjacency, with an
// optional boundary predicate that turns nodes into sinks (their
// out-edges are dropped before the condensation). The cost-benefit DP uses
// boundaries to encode the paper's heap-hop termination — heap readers
// (backward) and heap writers/consumers (forward) end traversals — and the
// deadness analysis uses the unrestricted forward form.

import "slices"

// Condensation is the SCC quotient of a snapshot under one edge family.
// Components are emitted in reverse topological order: every condensed edge
// points from a larger component index to a smaller one.
type Condensation struct {
	// NumComps is the component count.
	NumComps int
	// CompOf maps node ID → component index.
	CompOf []int32
	// Members of component c are CompNodes[CompStart[c]:CompStart[c+1]].
	CompStart []int32
	CompNodes []int32
	// Condensed edges (deduplicated): targets of component c are
	// Edges[EdgeStart[c]:EdgeStart[c+1]]; boundary components have none.
	EdgeStart []int32
	Edges     []int32
}

// Condense computes the condensation over the Use (forward=true) or Dep
// (forward=false) adjacency. boundary, when non-nil, marks nodes whose
// out-edges are dropped; such nodes always form singleton components.
func (s *Snapshot) Condense(forward bool, boundary []bool) *Condensation {
	start, adj := s.DepStart, s.Dep
	if forward {
		start, adj = s.UseStart, s.Use
	}
	n := len(s.Nodes)

	rowOf := func(v int32) []int32 {
		if boundary != nil && boundary[v] {
			return nil
		}
		return adj[start[v]:start[v+1]]
	}

	const unvisited = 0
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]int32, 0, n)
	compOf := make([]int32, n)
	var compSizes []int32
	next := int32(1)

	type frame struct {
		v   int32
		row []int32
		i   int32
	}
	var work []frame

	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		work = append(work[:0], frame{v: root, row: rowOf(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.i < int32(len(f.row)) {
				t := f.row[f.i]
				f.i++
				if index[t] == unvisited {
					index[t] = next
					low[t] = next
					next++
					stack = append(stack, t)
					onStack[t] = true
					work = append(work, frame{v: t, row: rowOf(t)})
				} else if onStack[t] && index[t] < low[f.v] {
					low[f.v] = index[t]
				}
				continue
			}
			// f.v finished.
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				ci := int32(len(compSizes))
				size := int32(0)
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					compOf[top] = ci
					size++
					if top == v {
						break
					}
				}
				compSizes = append(compSizes, size)
			}
		}
	}

	c := &Condensation{NumComps: len(compSizes), CompOf: compOf}

	// Membership CSR.
	c.CompStart = make([]int32, c.NumComps+1)
	for ci, size := range compSizes {
		c.CompStart[ci+1] = c.CompStart[ci] + size
	}
	c.CompNodes = make([]int32, n)
	cursor := make([]int32, c.NumComps)
	copy(cursor, c.CompStart[:c.NumComps])
	for v := int32(0); v < int32(n); v++ {
		ci := compOf[v]
		c.CompNodes[cursor[ci]] = v
		cursor[ci]++
	}

	// Condensed edges: bucket them by source component, walking each
	// component's members, then sort and deduplicate each row in place.
	c.EdgeStart = make([]int32, c.NumComps+1)
	for v := int32(0); v < int32(n); v++ {
		cv := compOf[v]
		for _, t := range rowOf(v) {
			if compOf[t] != cv {
				c.EdgeStart[cv+1]++
			}
		}
	}
	for ci := 0; ci < c.NumComps; ci++ {
		c.EdgeStart[ci+1] += c.EdgeStart[ci]
	}
	c.Edges = make([]int32, c.EdgeStart[c.NumComps])
	k := 0
	for ci := int32(0); ci < int32(c.NumComps); ci++ {
		for _, v := range c.Members(ci) {
			for _, t := range rowOf(v) {
				if ct := compOf[t]; ct != ci {
					c.Edges[k] = ct
					k++
				}
			}
		}
	}
	w, lo := int32(0), int32(0)
	for ci := 0; ci < c.NumComps; ci++ {
		hi := c.EdgeStart[ci+1]
		row := c.Edges[lo:hi]
		slices.Sort(row)
		c.EdgeStart[ci] = w
		for _, t := range row {
			if w == c.EdgeStart[ci] || c.Edges[w-1] != t {
				c.Edges[w] = t
				w++
			}
		}
		lo = hi
	}
	c.EdgeStart[c.NumComps] = w
	c.Edges = c.Edges[:w]
	return c
}

// Members returns the node IDs of component ci.
func (c *Condensation) Members(ci int32) []int32 {
	return c.CompNodes[c.CompStart[ci]:c.CompStart[ci+1]]
}

// Succs returns the condensed successor components of ci; every returned
// index is smaller than ci's reverse-topological position guarantees.
func (c *Condensation) Succs(ci int32) []int32 {
	return c.Edges[c.EdgeStart[ci]:c.EdgeStart[ci+1]]
}
