package costben

// Differential proof for the frozen DP path: on every workload, every
// metric the analysis exposes — per-node HRAC/HRAB, per-location RAC/RAB,
// per-structure NRAC/NRAB, and both rankings — must be bit-identical
// between the per-query reference below and the condensed DP sweep, and
// the parallel ranking must be bit-identical to the serial one.

import (
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// perQuery is the cost/benefit path the frozen DP replaced, kept as the
// test reference: one graph traversal per node for HRAC/HRAB (memoized),
// RAC/RAB as means over each location's stores and loads, and the tree
// aggregates through Analysis.aggregate with those per-location metrics.
type perQuery struct {
	a    *Analysis
	hrac map[*depgraph.Node]int64
	hrab map[*depgraph.Node]hrabEntry
}

type hrabEntry struct {
	sum      int64
	consumed bool
}

func newPerQuery(g *depgraph.Graph) *perQuery {
	return &perQuery{
		a:    NewAnalysis(g),
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
	q.a.G.StoresOf(loc, func(s *depgraph.Node) {
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
	q.a.G.LoadsOf(loc, func(l *depgraph.Node) {
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

func (q *perQuery) NRAC(root *depgraph.Node, height int) float64 {
	v, _ := q.a.aggregate(root, height, q.RAC)
	return v
}

func (q *perQuery) NRABDetail(root *depgraph.Node, height int) (float64, bool) {
	return q.a.aggregate(root, height, q.RAB)
}

// RankStructures ranks every allocation node serially from the per-query
// metrics, in the product's ranking order.
func (q *perQuery) RankStructures(height int) []*StructureReport {
	var out []*StructureReport
	q.a.G.Nodes(func(n *depgraph.Node) {
		if n.Eff != depgraph.EffAlloc {
			return
		}
		cost := q.NRAC(n, height)
		ben, consumed := q.NRABDetail(n, height)
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

			// Per-location metrics.
			g.Locs(func(loc depgraph.Loc) {
				if fr, lr := frozen.RAC(loc), ref.RAC(loc); fr != lr {
					t.Fatalf("RAC(%v) = %v frozen, %v reference", loc, fr, lr)
				}
				if fr, lr := frozen.RAB(loc), ref.RAB(loc); fr != lr {
					t.Fatalf("RAB(%v) = %v frozen, %v reference", loc, fr, lr)
				}
			})

			// Per-structure aggregates.
			g.Nodes(func(n *depgraph.Node) {
				if n.Eff != depgraph.EffAlloc {
					return
				}
				if fc, lc := frozen.NRAC(n, DefaultTreeHeight), ref.NRAC(n, DefaultTreeHeight); fc != lc {
					t.Fatalf("NRAC(%v) = %v frozen, %v reference", n, fc, lc)
				}
				fb, fcons := frozen.NRABDetail(n, DefaultTreeHeight)
				lb, lcons := ref.NRABDetail(n, DefaultTreeHeight)
				if fb != lb || fcons != lcons {
					t.Fatalf("NRAB(%v) = %v,%v frozen, %v,%v reference", n, fb, fcons, lb, lcons)
				}
			})

			// Full rankings.
			fr := frozen.RankStructures(DefaultTreeHeight)
			lr := ref.RankStructures(DefaultTreeHeight)
			if len(fr) != len(lr) {
				t.Fatalf("RankStructures: %d vs %d entries", len(fr), len(lr))
			}
			for i := range fr {
				f, l := fr[i], lr[i]
				if f.Alloc != l.Alloc || f.NRAC != l.NRAC || f.NRAB != l.NRAB ||
					f.Rate != l.Rate || f.Consumed != l.Consumed || f.AllocFreq != l.AllocFreq {
					t.Fatalf("RankStructures entry %d differs:\n frozen %v\n ref    %v", i, f, l)
				}
			}
			sameReports(t, "RankBySite", frozen.RankBySite(DefaultTreeHeight), bySite(lr))
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
