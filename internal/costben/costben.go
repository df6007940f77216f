// Package costben implements the relative object cost-benefit analysis of
// §3 of the paper: RAC/RAB per abstract heap location (Definitions 5 and 6),
// n-RAC/n-RAB per data structure (Definition 7), and the ranked
// low-utility-structure report the case studies are driven by.
package costben

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"lowutil/internal/depgraph"
	"lowutil/internal/ir"
	"lowutil/internal/par"
)

// InfiniteRAB marks a single location whose values flow to predicate or
// native consumers ("the value contributes to control decision making or is
// used by the JVM, and thus benefits the overall execution").
const InfiniteRAB = math.MaxFloat64

// ConsumedRAB is the finite "large RAB" such a location contributes when
// benefits are aggregated over a data structure. The paper assigns "a large
// RAB", not an absorbing infinity: with an absorbing value, any structure
// with a single control-feeding field (e.g. a hash map, whose keys always
// drive probe comparisons) could never be ranked, even if every other field
// were pure waste. A large finite weight keeps consumed fields practically
// unrankable on their own while letting the waste in sibling fields surface.
const ConsumedRAB = 1e7

// DefaultTreeHeight is the reference-chain length used for data-structure
// aggregation; the paper uses 4, "the reference chain length for the most
// complex container classes in the Java collection framework".
const DefaultTreeHeight = 4

// Config tunes the analysis.
type Config struct {
	// Workers bounds the ranking worker pool; 0 means GOMAXPROCS.
	Workers int
}

// Analysis computes the paper's metrics over a finished Gcost. It freezes
// the graph into a CSR snapshot and computes HRAC/HRAB for all nodes in one
// condensed DP sweep. Every query is safe for concurrent use.
type Analysis struct {
	G   *depgraph.Graph
	cfg Config

	// snap is the frozen graph; dp holds the snapshot-memoized DP arrays,
	// attached on first use.
	snap   *depgraph.Snapshot
	dpOnce sync.Once
	dp     *dpData
}

// NewAnalysis wraps a finished graph with the default configuration.
func NewAnalysis(g *depgraph.Graph) *Analysis {
	return NewAnalysisWith(g, Config{})
}

// NewAnalysisWith wraps a finished graph with an explicit configuration.
func NewAnalysisWith(g *depgraph.Graph, cfg Config) *Analysis {
	return &Analysis{G: g, cfg: cfg, snap: g.Freeze()}
}

// ensureDP attaches the dense HRAC/HRAB/RAC/RAB arrays; safe for concurrent
// callers, and cached on the snapshot across analyses.
func (a *Analysis) ensureDP() {
	a.dpOnce.Do(func() {
		a.dp = dpFor(a.snap)
	})
}

// HRAC returns the heap-relative abstract cost of a node.
func (a *Analysis) HRAC(n *depgraph.Node) int64 {
	a.ensureDP()
	if id, ok := a.snap.ID(n); ok {
		return a.dp.hrac[id]
	}
	return depgraph.HRAC(n) // node added after the snapshot was taken
}

// HRAB returns the heap-relative abstract benefit of a node and whether the
// value reached a consumer.
func (a *Analysis) HRAB(n *depgraph.Node) (int64, bool) {
	a.ensureDP()
	if id, ok := a.snap.ID(n); ok {
		return a.dp.hrab[id], a.dp.consumed[id]
	}
	return depgraph.HRAB(n)
}

// RAC returns the relative abstract cost of an abstract location: the mean
// HRAC of the store nodes that write it (Definition 5). Locations never
// written have RAC 0.
func (a *Analysis) RAC(loc depgraph.Loc) float64 {
	a.ensureDP()
	if li, ok := a.snap.LocID(loc); ok {
		return a.dp.rac[li]
	}
	return 0 // unknown location: never stored or loaded
}

// RAB returns the relative abstract benefit of an abstract location: the
// mean HRAB of the load nodes that read it (Definition 6); InfiniteRAB if
// any read value reaches a predicate or native consumer; 0 if the location
// is never read.
func (a *Analysis) RAB(loc depgraph.Loc) float64 {
	a.ensureDP()
	if li, ok := a.snap.LocID(loc); ok {
		return a.dp.rab[li]
	}
	return 0
}

// Tree is the object reference tree RT_n of Definition 7: the set of
// allocation nodes within n reference hops of the root, with cycles removed
// by first-visit.
type Tree struct {
	Root  *depgraph.Node
	Depth map[*depgraph.Node]int
}

// ObjectTree builds RT_n rooted at root using the graph's points-to
// children.
func (a *Analysis) ObjectTree(root *depgraph.Node, height int) *Tree {
	t := &Tree{Root: root, Depth: map[*depgraph.Node]int{root: 0}}
	frontier := []*depgraph.Node{root}
	for d := 0; d < height && len(frontier) > 0; d++ {
		var next []*depgraph.Node
		for _, owner := range frontier {
			a.G.Children(owner, func(_ int, child *depgraph.Node) {
				if _, seen := t.Depth[child]; seen {
					return // cycle or diamond: keep first (shallowest) visit
				}
				t.Depth[child] = d + 1
				next = append(next, child)
			})
		}
		frontier = next
	}
	return t
}

// NRAC computes the n-RAC of the data structure rooted at root: the sum of
// RACs of every field of every object strictly inside the tree (depth < n,
// so that the field's target — if any — is still within RT_n).
func (a *Analysis) NRAC(root *depgraph.Node, height int) float64 {
	a.ensureDP()
	if id, ok := a.snap.ID(root); ok {
		v, _ := aggregateFrozen(a.snap, a.dp, id, height, false)
		return v
	}
	v, _ := a.aggregate(root, height, a.RAC)
	return v
}

// NRAB computes the n-RAB, symmetric to NRAC. Fields whose values reach
// consumers contribute the finite ConsumedRAB weight; the second result of
// NRABDetail reports whether any such field exists.
func (a *Analysis) NRAB(root *depgraph.Node, height int) float64 {
	v, _ := a.NRABDetail(root, height)
	return v
}

// NRABDetail is NRAB plus the consumed flag: true when at least one
// aggregated field's values reach a predicate or native consumer.
func (a *Analysis) NRABDetail(root *depgraph.Node, height int) (float64, bool) {
	a.ensureDP()
	if id, ok := a.snap.ID(root); ok {
		return aggregateFrozen(a.snap, a.dp, id, height, true)
	}
	return a.aggregate(root, height, a.RAB)
}

func (a *Analysis) aggregate(root *depgraph.Node, height int, metric func(depgraph.Loc) float64) (float64, bool) {
	t := a.ObjectTree(root, height)
	consumed := false
	// t.Depth and FieldsOf iterate maps; float addition is not associative,
	// so sum the per-field values in sorted order to keep results
	// byte-identical across runs.
	var vals []float64
	for owner, depth := range t.Depth {
		if depth >= height {
			continue
		}
		a.G.FieldsOf(owner, func(field int) {
			v := metric(depgraph.Loc{Alloc: owner, Field: field})
			if v == InfiniteRAB {
				consumed = true
				v = ConsumedRAB
			}
			vals = append(vals, v)
		})
	}
	sort.Float64s(vals)
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total, consumed
}

// StructureReport is one ranked entry of the low-utility report: a data
// structure (identified by its context-annotated allocation node) with its
// aggregated cost, benefit and cost/benefit rate.
type StructureReport struct {
	Alloc *depgraph.Node
	Site  *ir.Instr
	NRAC  float64
	NRAB  float64
	// Rate is NRAC / max(NRAB, 1).
	Rate float64
	// Consumed reports whether any aggregated field's values reach program
	// output or control decisions (those fields contribute ConsumedRAB).
	Consumed bool
	// AllocFreq is how many objects the abstraction allocated.
	AllocFreq int64
}

func (r *StructureReport) String() string {
	ben := fmt.Sprintf("%.1f", r.NRAB)
	if r.NRAB == InfiniteRAB {
		ben = "inf"
	}
	where := r.Site.Method.QualifiedName()
	return fmt.Sprintf("site %d (%s, pc %d): cost=%.1f benefit=%s rate=%.2f allocs=%d",
		r.Site.AllocSite, where, r.Site.PC, r.NRAC, ben, r.Rate, r.AllocFreq)
}

// Rate computes the suspiciousness rate from a cost and benefit.
func Rate(nrac, nrab float64) float64 {
	if nrab == InfiniteRAB {
		return 0
	}
	if nrab < 1 {
		nrab = 1
	}
	return nrac / nrab
}

// RankStructures computes the full low-utility ranking over every allocation
// node in the graph, most suspicious first. Ties break by higher cost, then
// by site ID for determinism.
func (a *Analysis) RankStructures(height int) []*StructureReport {
	if height <= 0 {
		height = DefaultTreeHeight
	}
	var allocs []*depgraph.Node
	a.G.Nodes(func(n *depgraph.Node) {
		if n.Eff == depgraph.EffAlloc {
			allocs = append(allocs, n)
		}
	})
	a.ensureDP() // build the shared DP arrays before workers start
	out := make([]*StructureReport, len(allocs))
	par.ForEach(len(allocs), a.cfg.Workers, func(i int) {
		n := allocs[i]
		cost := a.NRAC(n, height)
		ben, consumed := a.NRABDetail(n, height)
		out[i] = &StructureReport{
			Alloc:     n,
			Site:      n.In,
			NRAC:      cost,
			NRAB:      ben,
			Rate:      Rate(cost, ben),
			Consumed:  consumed,
			AllocFreq: n.Freq(),
		}
	})
	sortStructures(out)
	return out
}

// sortStructures orders a ranking most suspicious first: by rate, then by
// higher cost, then by site ID and context for determinism.
func sortStructures(rs []*StructureReport) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Rate != rs[j].Rate {
			return rs[i].Rate > rs[j].Rate
		}
		if rs[i].NRAC != rs[j].NRAC {
			return rs[i].NRAC > rs[j].NRAC
		}
		if rs[i].Site.AllocSite != rs[j].Site.AllocSite {
			return rs[i].Site.AllocSite < rs[j].Site.AllocSite
		}
		return rs[i].Alloc.D < rs[j].Alloc.D
	})
}

// RankBySite aggregates RankStructures entries per static allocation site
// (summing across contexts), most suspicious first. This is the per-site
// view used when comparing against planted bloat.
func (a *Analysis) RankBySite(height int) []*SiteReport {
	return bySite(a.RankStructures(height))
}

// bySite folds a structure ranking into the per-site ranking.
func bySite(ranked []*StructureReport) []*SiteReport {
	perSite := make(map[int]*SiteReport)
	for _, r := range ranked {
		s := perSite[r.Site.AllocSite]
		if s == nil {
			s = &SiteReport{Site: r.Site}
			perSite[r.Site.AllocSite] = s
		}
		s.NRAC += r.NRAC
		s.NRAB += r.NRAB
		s.Consumed = s.Consumed || r.Consumed
		s.AllocFreq += r.AllocFreq
	}
	out := make([]*SiteReport, 0, len(perSite))
	for _, s := range perSite {
		s.Rate = Rate(s.NRAC, s.NRAB)
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		if out[i].NRAC != out[j].NRAC {
			return out[i].NRAC > out[j].NRAC
		}
		return out[i].Site.AllocSite < out[j].Site.AllocSite
	})
	return out
}

// SiteReport is a per-allocation-site aggregation of StructureReports.
type SiteReport struct {
	Site      *ir.Instr
	NRAC      float64
	NRAB      float64
	Rate      float64
	Consumed  bool
	AllocFreq int64
}

func (s *SiteReport) String() string {
	ben := fmt.Sprintf("%.1f", s.NRAB)
	if s.NRAB == InfiniteRAB {
		ben = "inf"
	}
	return fmt.Sprintf("site %d (%s pc %d): cost=%.1f benefit=%s rate=%.2f allocs=%d",
		s.Site.AllocSite, s.Site.Method.QualifiedName(), s.Site.PC, s.NRAC, ben, s.Rate, s.AllocFreq)
}

// FormatTop renders the top k site reports as a table.
func FormatTop(reports []*SiteReport, k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %-32s %12s %12s %10s %9s\n", "site", "where", "n-RAC", "n-RAB", "rate", "allocs")
	for i, r := range reports {
		if i >= k {
			break
		}
		ben := fmt.Sprintf("%12.1f", r.NRAB)
		if r.NRAB == InfiniteRAB {
			ben = fmt.Sprintf("%12s", "inf")
		}
		fmt.Fprintf(&sb, "%-5d %-32s %12.1f %s %10.2f %9d\n",
			r.Site.AllocSite,
			fmt.Sprintf("%s:%d", r.Site.Method.QualifiedName(), r.Site.PC),
			r.NRAC, ben, r.Rate, r.AllocFreq)
	}
	return sb.String()
}

// NodeCostRow is one line of the Figure 3(c)-style table: an abstract node
// of a method with its execution frequency and abstract cost (Definition 4).
type NodeCostRow struct {
	Node *depgraph.Node
	Freq int64
	// AbstractCost is the frequency sum of all nodes that can reach this
	// one — the cumulative effort since the beginning of the execution.
	AbstractCost int64
}

// MethodNodeCosts regenerates the Figure 3(c) table for one method: every
// abstract node of the method's instructions with Freq and abstract cost,
// ordered by PC then context. This is the "abstract cost" view the paper
// contrasts with the relative metrics (costs of later nodes are almost
// always larger — the ab initio problem §3 then solves).
func MethodNodeCosts(g *depgraph.Graph, method *ir.Method) []NodeCostRow {
	var rows []NodeCostRow
	g.Nodes(func(n *depgraph.Node) {
		if n.In.Method != method {
			return
		}
		rows = append(rows, NodeCostRow{
			Node:         n,
			Freq:         n.Freq(),
			AbstractCost: depgraph.AbstractCost(n),
		})
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Node.In.PC != rows[j].Node.In.PC {
			return rows[i].Node.In.PC < rows[j].Node.In.PC
		}
		return rows[i].Node.D < rows[j].Node.D
	})
	return rows
}

// FormatNodeCosts renders MethodNodeCosts as the paper's three-column table.
func FormatNodeCosts(rows []NodeCostRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %10s %12s\n", "Node", "Freq", "AC")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-40s %10d %12d\n",
			fmt.Sprintf("pc%d %s ^%d", r.Node.In.PC, r.Node.In, r.Node.D),
			r.Freq, r.AbstractCost)
	}
	return sb.String()
}
