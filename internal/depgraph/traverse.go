package depgraph

// This file implements the traversals behind the paper's cost metrics:
//
//   - abstract cost (Definition 4): frequency-weighted backward reachability
//   - HRAC (Definition 5): backward reachability that terminates, without
//     counting, at nodes that read a static or object field — restricting
//     the cost to one heap-to-heap "hop"
//   - HRAB (Definition 6): the forward dual, terminating at heap writers
//
// All traversals are iterative; graphs can be deep.

// BackwardSlice returns the set of nodes that can reach seed through dep
// edges, including seed itself — the dynamic thin slice of seed.
func BackwardSlice(seed *Node) map[*Node]struct{} {
	visited := map[*Node]struct{}{seed: {}}
	stack := []*Node{seed}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.g.depSets[n.id].each(n.g.all, func(d *Node) {
			if _, ok := visited[d]; !ok {
				visited[d] = struct{}{}
				stack = append(stack, d)
			}
		})
	}
	return visited
}

// AbstractCost computes Definition 4: the sum of frequencies of all nodes
// that can reach n (plus n itself).
func AbstractCost(n *Node) int64 {
	var sum int64
	for m := range BackwardSlice(n) {
		sum += m.Freq()
	}
	return sum
}

// HRAC computes the heap-relative abstract cost of n (Definition 5): the
// frequency sum over backward paths from n that contain no heap-reading
// node. Heap readers terminate the walk and are not counted; n itself is
// always counted.
func HRAC(n *Node) int64 {
	sum := n.Freq()
	visited := map[*Node]struct{}{n: {}}
	stack := []*Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur.g.depSets[cur.id].each(cur.g.all, func(d *Node) {
			if _, ok := visited[d]; ok {
				return
			}
			visited[d] = struct{}{}
			if d.ReadsHeap() {
				return // hop boundary: uncounted, untraversed
			}
			sum += d.Freq()
			stack = append(stack, d)
		})
	}
	return sum
}

// HRAB computes the heap-relative abstract benefit of n (Definition 6): the
// frequency sum over forward paths from n that contain no heap-writing node
// (heap writers terminate the walk uncounted; n itself is counted). The
// second result reports whether the walk reached a consumer (predicate or
// native) node, in which case the paper assigns the location a large RAB.
func HRAB(n *Node) (sum int64, consumed bool) {
	sum = n.Freq()
	visited := map[*Node]struct{}{n: {}}
	stack := []*Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur.g.useSets[cur.id].each(cur.g.all, func(u *Node) {
			if _, ok := visited[u]; ok {
				return
			}
			visited[u] = struct{}{}
			if u.IsConsumer() {
				consumed = true
				sum += u.Freq()
				return // consumers are sinks
			}
			if u.WritesHeap() {
				return // hop boundary: uncounted, untraversed
			}
			sum += u.Freq()
			stack = append(stack, u)
		})
	}
	return sum, consumed
}
