// Package deadness implements the ultimately-dead value measurement of
// §4.1 of the paper (Table 1, part (c)):
//
//   - D: non-consumer nodes with no outgoing def-use edges — nothing ever
//     depends on the values they produce.
//   - D*: nodes that can lead only to nodes in D. IPD is the fraction of
//     instruction instances represented by D* nodes; NLD is the fraction of
//     graph nodes in D*.
//   - P*: nodes that can lead only to predicate consumer nodes. IPP is the
//     fraction of instruction instances represented by P* nodes.
//
// The propagation runs over the SCC condensation of the def→use direction,
// so cycles of mutually-dependent dead values are classified correctly.
package deadness

import (
	"lowutil/internal/depgraph"
)

// Outcome is a bitmask of where a node's values can ultimately end up.
type Outcome uint8

const (
	// OutDead marks flow into a use-free non-consumer node.
	OutDead Outcome = 1 << iota
	// OutPredicate marks flow into an if predicate.
	OutPredicate
	// OutNative marks flow into a native consumer (program output / JVM).
	OutNative
)

// Result summarizes a deadness analysis.
type Result struct {
	// Instances is the total frequency over all non-consumer nodes — the
	// denominator restricted to value-producing work tracked in the graph.
	Instances int64
	// TotalInstances is the denominator actually used for IPD/IPP: the
	// machine's executed-instruction count when provided, else Instances.
	TotalInstances int64

	// DeadFreq is the frequency mass of D* (values that are ultimately
	// dead); PredFreq the mass of P* (values that end up only in
	// predicates).
	DeadFreq int64
	PredFreq int64

	// DeadNodes is |D*|; Nodes is |V|.
	DeadNodes int
	Nodes     int

	// Out maps every node to its outcome mask.
	Out map[*depgraph.Node]Outcome
}

// IPD returns the percentage of instruction instances producing ultimately
// dead values.
func (r *Result) IPD() float64 { return pct(r.DeadFreq, r.TotalInstances) }

// IPP returns the percentage of instruction instances whose values end up
// only in predicates.
func (r *Result) IPP() float64 { return pct(r.PredFreq, r.TotalInstances) }

// NLD returns the percentage of graph nodes that are ultimately dead.
func (r *Result) NLD() float64 { return pct(int64(r.DeadNodes), int64(r.Nodes)) }

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Analyze computes the deadness result for g. totalInstances is the
// machine's executed-instruction count (#I); pass 0 to use the graph's own
// frequency mass as the denominator.
//
// The analysis runs over the frozen CSR snapshot: one condensation of the
// def→use direction, then outcome propagation in component index order
// (components come out in reverse topological order, so successors are
// always resolved first). The differential test keeps the original
// map-based propagation as its reference.
func Analyze(g *depgraph.Graph, totalInstances int64) *Result {
	s := g.Freeze()
	c := s.Condense(true, nil)

	outOf := make([]Outcome, c.NumComps)
	for ci := 0; ci < c.NumComps; ci++ {
		var out Outcome
		hasExternalSucc := false
		consumerOnly := true
		for _, v := range c.Members(int32(ci)) {
			if s.Consumer[v] {
				if s.Predicate[v] {
					out |= OutPredicate
				} else {
					out |= OutNative
				}
				continue // consumer out-edges do not propagate outcomes
			}
			consumerOnly = false
			for _, t := range s.Use[s.UseStart[v]:s.UseStart[v+1]] {
				tc := c.CompOf[t]
				if int(tc) == ci {
					continue // intra-component edge
				}
				hasExternalSucc = true
				out |= outOf[tc]
			}
		}
		if !consumerOnly && !hasExternalSucc && out == 0 {
			// A use-free (or internally cyclic) non-consumer component: D.
			out = OutDead
		}
		outOf[ci] = out
	}

	res := &Result{Out: make(map[*depgraph.Node]Outcome, s.NumNodes())}
	for i, n := range s.Nodes {
		res.Nodes++
		out := outOf[c.CompOf[i]]
		res.Out[n] = out
		if s.Consumer[i] {
			continue
		}
		res.Instances += s.Freq[i]
		switch out {
		case OutDead:
			res.DeadFreq += s.Freq[i]
			res.DeadNodes++
		case OutPredicate:
			res.PredFreq += s.Freq[i]
		}
	}
	res.TotalInstances = totalInstances
	if res.TotalInstances == 0 {
		res.TotalInstances = res.Instances
	}
	return res
}
