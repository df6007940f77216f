package costben

// Differential proof for the frozen DP path: on every workload, every
// metric the analysis exposes — per-node HRAC/HRAB, and for 1, 2 and 3
// hops per-location RAC/RAB, per-structure NRAC/NRAB and both rankings —
// must be bit-identical between the per-query reference below and the
// snapshot path, and the parallel ranking must be bit-identical to the
// serial one.

import (
	"fmt"
	"sort"
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// perQuery is the cost/benefit path the frozen DP replaced, kept as the
// test reference: one graph traversal per node for HRAC/HRAB (memoized),
// RAC/RAB and their k-hop forms as means over each location's stores and
// loads, and the tree aggregates through a map-based object reference tree
// with those per-location metrics.
type perQuery struct {
	g    *depgraph.Graph
	hrac map[*depgraph.Node]int64
	hrab map[*depgraph.Node]hrabEntry
}

type hrabEntry struct {
	sum      int64
	consumed bool
}

func newPerQuery(g *depgraph.Graph) *perQuery {
	return &perQuery{
		g:    g,
		hrac: make(map[*depgraph.Node]int64),
		hrab: make(map[*depgraph.Node]hrabEntry),
	}
}

func (q *perQuery) HRAC(n *depgraph.Node) int64 {
	if v, ok := q.hrac[n]; ok {
		return v
	}
	v := depgraph.HRAC(n)
	q.hrac[n] = v
	return v
}

func (q *perQuery) HRAB(n *depgraph.Node) (int64, bool) {
	if v, ok := q.hrab[n]; ok {
		return v.sum, v.consumed
	}
	sum, consumed := depgraph.HRAB(n)
	q.hrab[n] = hrabEntry{sum, consumed}
	return sum, consumed
}

func (q *perQuery) RAC(loc depgraph.Loc) float64 {
	var sum int64
	n := 0
	q.g.StoresOf(loc, func(s *depgraph.Node) {
		sum += q.HRAC(s)
		n++
	})
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func (q *perQuery) RAB(loc depgraph.Loc) float64 {
	var sum int64
	n := 0
	infinite := false
	q.g.LoadsOf(loc, func(l *depgraph.Node) {
		s, consumed := q.HRAB(l)
		if consumed {
			infinite = true
		}
		sum += s
		n++
	})
	if infinite {
		return InfiniteRAB
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// RACK is the k-hop relative abstract cost of a location: the mean k-hop
// HRAC of its store nodes.
func (q *perQuery) RACK(loc depgraph.Loc, hops int) float64 {
	var sum int64
	n := 0
	q.g.StoresOf(loc, func(s *depgraph.Node) {
		sum += depgraph.HRACK(s, hops)
		n++
	})
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// RABK is the k-hop relative abstract benefit, the forward dual of RACK.
func (q *perQuery) RABK(loc depgraph.Loc, hops int) float64 {
	var sum int64
	n := 0
	infinite := false
	q.g.LoadsOf(loc, func(l *depgraph.Node) {
		s, consumed := depgraph.HRABK(l, hops)
		if consumed {
			infinite = true
		}
		sum += s
		n++
	})
	if infinite {
		return InfiniteRAB
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// objectTree builds the object reference tree RT_n of Definition 7 rooted
// at root from the graph's points-to children: the allocation nodes within
// height reference hops of the root, each at the depth of its first
// (shallowest) visit, so cycles are removed.
func objectTree(g *depgraph.Graph, root *depgraph.Node, height int) map[*depgraph.Node]int {
	depth := map[*depgraph.Node]int{root: 0}
	frontier := []*depgraph.Node{root}
	for d := 0; d < height && len(frontier) > 0; d++ {
		var next []*depgraph.Node
		for _, owner := range frontier {
			g.Children(owner, func(_ int, child *depgraph.Node) {
				if _, seen := depth[child]; seen {
					return // cycle or diamond: keep first (shallowest) visit
				}
				depth[child] = d + 1
				next = append(next, child)
			})
		}
		frontier = next
	}
	return depth
}

// aggregate sums metric over every field of every object strictly inside
// the tree (depth < height).
func (q *perQuery) aggregate(root *depgraph.Node, height int, metric func(depgraph.Loc) float64) (float64, bool) {
	consumed := false
	// The tree and FieldsOf iterate maps; float addition is not
	// associative, so sum the per-field values in sorted order to keep
	// results byte-identical across runs.
	var vals []float64
	for owner, depth := range objectTree(q.g, root, height) {
		if depth >= height {
			continue
		}
		q.g.FieldsOf(owner, func(field int) {
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

func (q *perQuery) NRAC(root *depgraph.Node, height int) float64 {
	v, _ := q.aggregate(root, height, q.RAC)
	return v
}

func (q *perQuery) NRABDetail(root *depgraph.Node, height int) (float64, bool) {
	return q.aggregate(root, height, q.RAB)
}

func (q *perQuery) NRACK(root *depgraph.Node, height, hops int) float64 {
	v, _ := q.aggregate(root, height, func(loc depgraph.Loc) float64 { return q.RACK(loc, hops) })
	return v
}

func (q *perQuery) NRABK(root *depgraph.Node, height, hops int) (float64, bool) {
	return q.aggregate(root, height, func(loc depgraph.Loc) float64 { return q.RABK(loc, hops) })
}

// RankStructures ranks every allocation node serially from the per-query
// k-hop metrics, in the product's ranking order.
func (q *perQuery) RankStructures(height, hops int) []*StructureReport {
	var out []*StructureReport
	q.g.Nodes(func(n *depgraph.Node) {
		if n.Eff != depgraph.EffAlloc {
			return
		}
		cost := q.NRACK(n, height, hops)
		ben, consumed := q.NRABK(n, height, hops)
		out = append(out, &StructureReport{
			Alloc: n, Site: n.In, NRAC: cost, NRAB: ben,
			Rate: Rate(cost, ben), Consumed: consumed, AllocFreq: n.Freq(),
		})
	})
	sortStructures(out)
	return out
}

func profileWorkload(t *testing.T, name string) *depgraph.Graph {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %s", name)
	}
	prog, err := w.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return p.G
}

func sameReports(t *testing.T, kind string, frozen, ref []*SiteReport) {
	t.Helper()
	if len(frozen) != len(ref) {
		t.Fatalf("%s: %d vs %d entries", kind, len(frozen), len(ref))
	}
	for i := range frozen {
		f, l := frozen[i], ref[i]
		if f.Site != l.Site || f.NRAC != l.NRAC || f.NRAB != l.NRAB ||
			f.Rate != l.Rate || f.Consumed != l.Consumed || f.AllocFreq != l.AllocFreq {
			t.Fatalf("%s entry %d differs:\n frozen %v\n ref    %v", kind, i, f, l)
		}
	}
}

func TestFrozenMatchesLegacyAllWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads.All()))
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if testing.Short() {
		names = []string{"eclipse", "bloat", "xalan"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profileWorkload(t, name)
			frozen := NewAnalysis(g)
			ref := newPerQuery(g)

			// Per-node metrics over every node of the graph.
			g.Nodes(func(n *depgraph.Node) {
				if fc, lc := frozen.HRAC(n), ref.HRAC(n); fc != lc {
					t.Fatalf("HRAC(%v) = %d frozen, %d reference", n, fc, lc)
				}
				fb, fcons := frozen.HRAB(n)
				lb, lcons := ref.HRAB(n)
				if fb != lb || fcons != lcons {
					t.Fatalf("HRAB(%v) = %d,%v frozen, %d,%v reference", n, fb, fcons, lb, lcons)
				}
			})

			// Every metric at 1, 2 and 3 hops, against the reference's k-hop
			// forms; at one hop, those equal its one-hop forms.
			for hops := 1; hops <= 3; hops++ {
				g.Locs(func(loc depgraph.Loc) {
					rac, rab := ref.RACK(loc, hops), ref.RABK(loc, hops)
					if hops == 1 && (ref.RAC(loc) != rac || ref.RAB(loc) != rab) {
						t.Fatalf("reference RAC/RAB(%v) = %v,%v, one-hop RACK/RABK %v,%v", loc, ref.RAC(loc), ref.RAB(loc), rac, rab)
					}
					if fr := frozen.RAC(loc, hops); fr != rac {
						t.Fatalf("RAC(%v, %d) = %v frozen, %v reference", loc, hops, fr, rac)
					}
					if fr := frozen.RAB(loc, hops); fr != rab {
						t.Fatalf("RAB(%v, %d) = %v frozen, %v reference", loc, hops, fr, rab)
					}
				})
				g.Nodes(func(n *depgraph.Node) {
					if n.Eff != depgraph.EffAlloc {
						return
					}
					lc := ref.NRACK(n, DefaultTreeHeight, hops)
					lb, lcons := ref.NRABK(n, DefaultTreeHeight, hops)
					if hops == 1 {
						ob, ocons := ref.NRABDetail(n, DefaultTreeHeight)
						if oc := ref.NRAC(n, DefaultTreeHeight); oc != lc || ob != lb || ocons != lcons {
							t.Fatalf("reference NRAC/NRAB(%v) = %v,%v,%v, one-hop NRACK/NRABK %v,%v,%v", n, oc, ob, ocons, lc, lb, lcons)
						}
					}
					if fc := frozen.NRAC(n, DefaultTreeHeight, hops); fc != lc {
						t.Fatalf("NRAC(%v, %d) = %v frozen, %v reference", n, hops, fc, lc)
					}
					fb, fcons := frozen.NRAB(n, DefaultTreeHeight, hops)
					if fb != lb || fcons != lcons {
						t.Fatalf("NRAB(%v, %d) = %v,%v frozen, %v,%v reference", n, hops, fb, fcons, lb, lcons)
					}
				})

				fr := frozen.RankStructures(DefaultTreeHeight, hops)
				lr := ref.RankStructures(DefaultTreeHeight, hops)
				if len(fr) != len(lr) {
					t.Fatalf("RankStructures at %d hops: %d vs %d entries", hops, len(fr), len(lr))
				}
				for i := range fr {
					f, l := fr[i], lr[i]
					if f.Alloc != l.Alloc || f.NRAC != l.NRAC || f.NRAB != l.NRAB ||
						f.Rate != l.Rate || f.Consumed != l.Consumed || f.AllocFreq != l.AllocFreq {
						t.Fatalf("RankStructures at %d hops, entry %d differs:\n frozen %v\n ref    %v", hops, i, f, l)
					}
				}
				sameReports(t, fmt.Sprintf("RankBySiteHops(%d)", hops), frozen.RankBySiteHops(DefaultTreeHeight, hops), bySite(lr))
				if hops == 1 {
					sameReports(t, "RankBySite", frozen.RankBySite(DefaultTreeHeight), bySite(lr))
				}
			}
		})
	}
}

func TestParallelRankingDeterministic(t *testing.T) {
	g := profileWorkload(t, "eclipse")
	serial := NewAnalysisWith(g, Config{Workers: 1})
	parallel := NewAnalysisWith(g, Config{Workers: 8})
	want := serial.RankBySite(DefaultTreeHeight)
	// Re-rank several times: any map-order or scheduling nondeterminism in
	// the parallel merge would flake here.
	for round := 0; round < 5; round++ {
		sameReports(t, "parallel RankBySite", parallel.RankBySite(DefaultTreeHeight), want)
	}
}
