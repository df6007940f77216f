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
// the graph into a CSR snapshot and answers every query from it, with
// HRAC/HRAB for all nodes computed in one condensed DP sweep; a node or
// location the snapshot does not hold has metric 0. Every location metric,
// tree aggregate and ranking takes a hop count (§3.2's multi-hop
// alternative; 1 is the paper's definition, and a count below 1 counts as
// 1). Every query is safe for concurrent use.
type Analysis struct {
	G   *depgraph.Graph
	cfg Config

	// snap is the frozen graph. mu guards the tables derived from it, each
	// built once, on first use: dp, the one-hop DP arrays and location
	// tables, and khop, the location tables of each hop count above one.
	snap *depgraph.Snapshot
	mu   sync.Mutex
	dp   *dpData
	khop map[int]*locTables
}

// NewAnalysis wraps a finished graph with the default configuration.
func NewAnalysis(g *depgraph.Graph) *Analysis {
	return NewAnalysisWith(g, Config{})
}

// NewAnalysisWith wraps a finished graph with an explicit configuration.
func NewAnalysisWith(g *depgraph.Graph, cfg Config) *Analysis {
	return &Analysis{G: g, cfg: cfg, snap: g.Freeze()}
}

// data returns the one-hop DP arrays, building them on first use.
func (a *Analysis) data() *dpData {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dp == nil {
		a.dp = newDP(a.snap)
	}
	return a.dp
}

// tables returns the location tables of a hop count, building them on
// first use: the DP's at one hop (or below), k-hop ones above.
func (a *Analysis) tables(hops int) *locTables {
	if hops <= 1 {
		return &a.data().locTables
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.khop[hops]
	if t == nil {
		t = hopTables(a.snap, hops)
		if a.khop == nil {
			a.khop = make(map[int]*locTables)
		}
		a.khop[hops] = t
	}
	return t
}

// HRAC returns the heap-relative abstract cost of a node.
func (a *Analysis) HRAC(n *depgraph.Node) int64 {
	if id, ok := a.snap.ID(n); ok {
		return a.data().hrac[id]
	}
	return 0
}

// HRAB returns the heap-relative abstract benefit of a node and whether the
// value reached a consumer.
func (a *Analysis) HRAB(n *depgraph.Node) (int64, bool) {
	if id, ok := a.snap.ID(n); ok {
		d := a.data()
		return d.hrab[id], d.consumed[id]
	}
	return 0, false
}

// RAC returns the relative abstract cost of an abstract location: the mean
// HRAC of the store nodes that write it (Definition 5), over hops
// heap-to-heap hops. Locations never written have RAC 0.
func (a *Analysis) RAC(loc depgraph.Loc, hops int) float64 {
	return locMetric(a.snap, a.tables(hops).rac, loc)
}

// RAB returns the relative abstract benefit of an abstract location: the
// mean HRAB of the load nodes that read it (Definition 6), over hops
// heap-to-heap hops; InfiniteRAB if any read value reaches a predicate or
// native consumer; 0 if the location is never read.
func (a *Analysis) RAB(loc depgraph.Loc, hops int) float64 {
	return locMetric(a.snap, a.tables(hops).rab, loc)
}

// NRAC computes the n-RAC of the data structure rooted at root: the sum of
// the RACs of every field of every object strictly inside its object
// reference tree RT_n (Definition 7; depth < n, so that the field's target
// — if any — is still within RT_n).
func (a *Analysis) NRAC(root *depgraph.Node, height, hops int) float64 {
	v, _ := aggregateFrozen(a.snap, a.tables(hops).rac, root, height)
	return v
}

// NRAB computes the n-RAB, symmetric to NRAC. Fields whose values reach
// consumers contribute the finite ConsumedRAB weight, and the flag reports
// whether any such field exists.
func (a *Analysis) NRAB(root *depgraph.Node, height, hops int) (float64, bool) {
	return aggregateFrozen(a.snap, a.tables(hops).rab, root, height)
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
// node in the graph at the given hop count, most suspicious first. Ties
// break by higher cost, then by site ID for determinism.
func (a *Analysis) RankStructures(height, hops int) []*StructureReport {
	if height <= 0 {
		height = DefaultTreeHeight
	}
	var allocs []*depgraph.Node
	for _, n := range a.snap.Nodes {
		if n.Eff == depgraph.EffAlloc {
			allocs = append(allocs, n)
		}
	}
	t := a.tables(hops) // build the shared tables before workers start
	out := make([]*StructureReport, len(allocs))
	par.ForEach(len(allocs), a.cfg.Workers, func(i int) {
		n := allocs[i]
		cost, _ := aggregateFrozen(a.snap, t.rac, n, height)
		ben, consumed := aggregateFrozen(a.snap, t.rab, n, height)
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

// RankBySite is RankBySiteHops at one hop, the paper's ranking.
func (a *Analysis) RankBySite(height int) []*SiteReport {
	return a.RankBySiteHops(height, 1)
}

// RankBySiteHops aggregates RankStructures entries per static allocation
// site (summing across contexts), most suspicious first. This is the
// per-site view used when comparing against planted bloat.
func (a *Analysis) RankBySiteHops(height, hops int) []*SiteReport {
	return bySite(a.RankStructures(height, hops))
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
